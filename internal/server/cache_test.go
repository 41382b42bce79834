package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"r2t/internal/cache"
)

func TestFingerprint(t *testing.T) {
	fp := func(dataset, sql string, eps, gsq, beta float64, primary []string) string {
		return fingerprint(dataset, sql, eps, gsq, beta, primary, "", 0, 0)
	}
	base := fp("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"})
	if fp("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"}) != base {
		t.Fatal("fingerprint not deterministic")
	}
	// The primary set is order-insensitive.
	a := fp("d", "q", 1, 16, 0.1, []string{"A", "B"})
	b := fp("d", "q", 1, 16, 0.1, []string{"B", "A"})
	if a != b {
		t.Fatal("primary order changed the fingerprint")
	}
	// Every semantic dimension must separate — including the mechanism
	// selector and its parameters: "laplace" and "r2t" on the same query are
	// different releases, as are auto requests with different error targets
	// and fixed-τ requests with different τ.
	distinct := []string{
		base,
		fp("d2", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"}),
		fp("d", "SELECT COUNT(*) FROM Node", 0.5, 16, 0.1, []string{"Node"}),
		fp("d", "SELECT COUNT(*) FROM Edge", 0.6, 16, 0.1, []string{"Node"}),
		fp("d", "SELECT COUNT(*) FROM Edge", 0.5, 32, 0.1, []string{"Node"}),
		fp("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.2, []string{"Node"}),
		fp("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Edge"}),
		fingerprint("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"}, "laplace", 0, 0),
		fingerprint("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"}, "auto", 0, 0),
		fingerprint("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"}, "auto", 50, 0),
		fingerprint("d", "SELECT COUNT(*) FROM Edge", 0.5, 16, 0.1, []string{"Node"}, "fixed-tau", 0, 8),
	}
	seen := map[string]int{}
	for i, fp := range distinct {
		if j, dup := seen[fp]; dup {
			t.Fatalf("fingerprints %d and %d collide", i, j)
		}
		seen[fp] = i
	}
	// Field boundaries are length-prefixed: moving a character across the
	// dataset/SQL boundary must change the key.
	if fp("ab", "c", 1, 16, 0.1, nil) == fp("a", "bc", 1, 16, 0.1, nil) {
		t.Fatal("field-boundary collision")
	}
}

func TestCacheCoalescing(t *testing.T) {
	c := newAnswerCache()
	var runs int32
	release := make(chan struct{})
	const clients = 32

	var wg sync.WaitGroup
	freshCount := int32(0)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, cached, err := c.Do(context.Background(), "k", func() (cachedAnswer, error) {
				atomic.AddInt32(&runs, 1)
				<-release // hold every concurrent caller in the coalescing window
				return cachedAnswer{Estimate: 42, Epsilon: 0.5}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if ans.Estimate != 42 {
				t.Errorf("estimate %g", ans.Estimate)
			}
			if !cached {
				atomic.AddInt32(&freshCount, 1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("mechanism ran %d times for one fingerprint", got)
	}
	if got := atomic.LoadInt32(&freshCount); got != 1 {
		t.Fatalf("%d callers claim the fresh release", got)
	}
	// Later callers hit the recorded release.
	if _, cached, _ := c.Do(context.Background(), "k", nil); !cached {
		t.Fatal("recorded release missed")
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("cache size %d", c.Stats().Entries)
	}
}

func TestCacheLeaderFailureNotCached(t *testing.T) {
	c := newAnswerCache()
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (cachedAnswer, error) {
		return cachedAnswer{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("failed release was cached")
	}
	// The next caller leads afresh and can succeed.
	ans, cached, err := c.Do(context.Background(), "k", func() (cachedAnswer, error) {
		return cachedAnswer{Estimate: 7}, nil
	})
	if err != nil || cached || ans.Estimate != 7 {
		t.Fatalf("retry: %+v cached=%v err=%v", ans, cached, err)
	}
}

// put records one release synchronously.
func put(t *testing.T, c *answerCache, key string, ans cachedAnswer) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func() (cachedAnswer, error) {
		return ans, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAnswerCacheEviction(t *testing.T) {
	c := cache.New[string, cachedAnswer](2)
	put(t, c, "a", cachedAnswer{Estimate: 1})
	put(t, c, "b", cachedAnswer{Estimate: 2})
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, cached, _ := c.Do(context.Background(), "a", nil); !cached {
		t.Fatal("a missed before eviction")
	}
	put(t, c, "c", cachedAnswer{Estimate: 3})
	if c.Stats().Entries != 2 {
		t.Fatalf("size = %d, want 2", c.Stats().Entries)
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, cached, _ := c.Do(context.Background(), "a", nil); !cached {
		t.Fatal("recently used entry was evicted")
	}
	// The evicted key re-runs the mechanism (and would re-charge ε).
	reran := false
	if _, cached, err := c.Do(context.Background(), "b", func() (cachedAnswer, error) {
		reran = true
		return cachedAnswer{Estimate: 2}, nil
	}); err != nil || cached || !reran {
		t.Fatalf("evicted key: cached=%v reran=%v err=%v", cached, reran, err)
	}
}

func TestCacheFollowerContextCancel(t *testing.T) {
	c := newAnswerCache()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (cachedAnswer, error) {
			close(started)
			<-release
			return cachedAnswer{Estimate: 1}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v", err)
	}
	close(release)
}
