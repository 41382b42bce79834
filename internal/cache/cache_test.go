package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLRUOrderAndEviction: a touched entry survives, the least recently used
// one is evicted at the cap, and each eviction is counted once.
func TestLRUOrderAndEviction(t *testing.T) {
	c := NewLRU[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if n := c.Put(k, i); n != 0 {
			t.Fatalf("Put(%s) evicted %d under the cap", k, n)
		}
	}
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if n := c.Put("d", 3); n != 1 { // b is now least recently used
		t.Fatalf("Put(d) evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although it was least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted", k)
		}
	}
	// Replacing a present key evicts nothing and keeps the newest value.
	if n := c.Put("a", 10); n != 0 {
		t.Fatalf("replacing a evicted %d", n)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("a = %d after replace, want 10", v)
	}
	// The bound holds under a long stream of distinct keys (the append-id
	// window's case: an evicted id is simply forgotten).
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	s := c.Stats()
	if s.Entries != 3 || s.Evictions != 101 {
		t.Fatalf("stats %+v, want 3 entries and 101 evictions", s)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived 100 newer keys")
	}
}

// TestLRUStaleAndRetain: GetFresh drops what it rejects, Retain keeps
// replacements and drops the rest, both counting invalidations.
func TestLRUStaleAndRetain(t *testing.T) {
	c := NewLRU[string, int](8)
	c.Put("old", 1)
	if _, ok := c.GetFresh("old", func(v int) bool { return v == 2 }); ok {
		t.Fatal("stale entry served")
	}
	if _, ok := c.Get("old"); ok {
		t.Fatal("stale entry not dropped")
	}
	c.Put("even", 2)
	c.Put("odd", 3)
	c.Retain(func(_ string, v int) (int, bool) { return v * 10, v%2 == 0 })
	if v, ok := c.Get("even"); !ok || v != 20 {
		t.Fatalf("even = %v, %v; want 20 kept", v, ok)
	}
	if _, ok := c.Get("odd"); ok {
		t.Fatal("odd survived Retain")
	}
	if s := c.Stats(); s.Invalidations != 2 || s.Entries != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v, want 2 invalidations, 1 entry, 1 hit", s)
	}
}

// TestDoCoalesces: N concurrent callers of one key run fn once; the other
// N−1 are coalesced and receive the leader's value.
func TestDoCoalesces(t *testing.T) {
	c := New[string, int](4)
	const n = 16
	var runs atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	var fresh atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			if !shared {
				fresh.Add(1)
			}
		}()
	}
	// Hold the leader until every caller has joined its flight.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers joined the flight", c.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 || fresh.Load() != 1 {
		t.Fatalf("fn ran %d times, %d callers fresh; want 1 and 1", runs.Load(), fresh.Load())
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d coalesced, 1 entry", s, n-1)
	}
	if v, shared, _ := c.Do(context.Background(), "k", nil); v != 42 || !shared {
		t.Fatal("stored value missed")
	}
}

// TestDoFailedLeaderNotStored: a failed leader's followers get its error,
// nothing is stored, and the next caller leads afresh.
func TestDoFailedLeaderNotStored(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		leaderErr <- err
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, shared, err := c.Do(context.Background(), "k", nil)
		if !shared {
			t.Error("follower ran its own flight")
		}
		followerErr <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v", err)
	}
	if err := <-followerErr; !errors.Is(err, boom) {
		t.Fatalf("follower err = %v, want the leader's", err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed value stored: %+v", s)
	}
	v, shared, err := c.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || shared || v != 7 {
		t.Fatalf("retry = %d, shared %v, err %v; want a fresh 7", v, shared, err)
	}
}

// TestDoLeaderPanic: a panicking leader lands its flight (its follower gets
// ErrLeaderPanicked), re-panics, and leaves no in-flight entry behind.
func TestDoLeaderPanic(t *testing.T) {
	c := New[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("leader down")
		})
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", nil)
		followerErr <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-recovered; p != "leader down" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	select {
	case err := <-followerErr:
		if !errors.Is(err, ErrLeaderPanicked) {
			t.Fatalf("follower err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower still waiting on a panicked leader's flight")
	}
	v, shared, err := c.Do(context.Background(), "k", func() (int, error) { return 9, nil })
	if err != nil || shared || v != 9 {
		t.Fatalf("next caller = %d, shared %v, err %v; want to lead afresh", v, shared, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 entry", s)
	}
}

// TestDoFollowerContext: a follower whose context ends returns its error
// while the leader still runs; the leader's result is stored regardless.
func TestDoFollowerContext(t *testing.T) {
	c := New[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v", err)
	}
	close(release)
	<-done
	if v, ok := c.Get("k"); !ok || v != 5 {
		t.Fatalf("leader's value not stored: %v, %v", v, ok)
	}
}

// TestGetHitAllocFree: a hit is a map lookup and a list move, nothing more.
func TestGetHitAllocFree(t *testing.T) {
	c := New[string, int](4)
	c.Put("k", 1)
	if n := testing.AllocsPerRun(1000, func() { c.Get("k") }); n != 0 {
		t.Fatalf("Get hit allocates %v times", n)
	}
}
