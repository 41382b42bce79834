package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"r2t/internal/schema"
	"r2t/internal/value"
)

func cacheTable(t *testing.T) *Table {
	t.Helper()
	rel := &schema.Relation{Name: "T", Attrs: []string{"a"}, PK: "a"}
	schema.MustNew(rel)
	tbl := NewTable(rel)
	if err := tbl.Append(Row{value.IntV(1)}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func fill(t *testing.T, tbl *Table, ver uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, _ := tbl.JoinCacheAt(fmt.Sprintf("k%d", i), ver, func() any { return i })
		if v != i {
			t.Fatalf("build for k%d returned %v", i, v)
		}
	}
}

func TestJoinCacheLRUEviction(t *testing.T) {
	tbl := cacheTable(t)
	_, ver := tbl.Snapshot()
	const n = DefaultJoinCacheCap
	fill(t, tbl, ver, n) // k0 … k(n-1) fill the cap; LRU order back→front
	// Touch k0 so k1 becomes the eviction victim.
	if _, ok := tbl.JoinCacheGetAt("k0", ver); !ok {
		t.Fatal("k0 should be cached")
	}
	rebuilt := false
	v, evicted := tbl.JoinCacheAt("overflow", ver, func() any { rebuilt = true; return n })
	if v != n || !rebuilt || evicted != 1 {
		t.Fatalf("overflow should build fresh and evict one (v=%v rebuilt=%v evicted=%d)", v, rebuilt, evicted)
	}
	if _, ok := tbl.JoinCacheGetAt("k1", ver); ok {
		t.Error("k1 should have been evicted as least recently used")
	}
	for _, k := range []string{"k0", "k2", fmt.Sprintf("k%d", n-1), "overflow"} {
		if _, ok := tbl.JoinCacheGetAt(k, ver); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	s := tbl.JoinCacheStats()
	if s.Evictions != 1 || s.Entries != n {
		t.Errorf("stats = %+v, want 1 eviction, %d entries", s, n)
	}
	if s.Misses != n+1 { // one fresh build per key
		t.Errorf("misses = %d, want %d", s.Misses, n+1)
	}
}

func TestJoinCacheInvalidationCounted(t *testing.T) {
	tbl := cacheTable(t)
	_, ver := tbl.Snapshot()
	fill(t, tbl, ver, 2)
	if err := tbl.Append(Row{value.IntV(2)}); err != nil {
		t.Fatal(err)
	}
	s := tbl.JoinCacheStats()
	if s.Invalidations != 2 || s.Entries != 0 {
		t.Fatalf("stats after Append = %+v, want 2 invalidations, 0 entries", s)
	}
	// Stale-version build is served but never stored.
	tbl.JoinCacheAt("k0", ver, func() any { return "stale" })
	if _, ok := tbl.JoinCacheGetAt("k0", tbl.Version()); ok {
		t.Error("stale build must not be cached under the new version")
	}
}

func TestInstanceJoinCacheStatsAggregate(t *testing.T) {
	inst := seeded(t)
	_, ver := inst.Table("Orders").Snapshot()
	inst.Table("Orders").JoinCacheAt("k", ver, func() any { return 1 })
	inst.Table("Orders").JoinCacheGetAt("k", ver)
	_, lver := inst.Table("Lineitem").Snapshot()
	inst.Table("Lineitem").JoinCacheAt("k", lver, func() any { return 1 })
	s := inst.JoinCacheStats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("aggregate stats = %+v, want 1 hit, 2 misses, 2 entries", s)
	}
}

// TestJoinCacheBuildOutsideTableLock: while a cold index build runs, the
// table's Snapshot, Version and Append still return; concurrent lookups of the
// key wait for that one build; and the build, overtaken by the Append, is
// returned but not cached.
func TestJoinCacheBuildOutsideTableLock(t *testing.T) {
	tbl := cacheTable(t)
	_, ver := tbl.Snapshot()
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	build := func() any {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-release
		return "index"
	}
	const lookups = 4
	results := make(chan any, lookups)
	for i := 0; i < lookups; i++ {
		go func() {
			v, _ := tbl.JoinCacheAt("k", ver, build)
			results <- v
		}()
	}
	<-started
	for deadline := time.Now().Add(10 * time.Second); tbl.JoinCacheStats().Coalesced < lookups-1; {
		if time.Now().After(deadline) {
			t.Fatalf("lookups did not join the build: %+v", tbl.JoinCacheStats())
		}
		time.Sleep(time.Millisecond)
	}

	free := make(chan error, 1)
	go func() {
		tbl.Snapshot()
		tbl.Version()
		free <- tbl.Append(Row{value.IntV(2)})
	}()
	select {
	case err := <-free:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Snapshot/Version/Append blocked behind an index build")
	}

	close(release)
	for i := 0; i < lookups; i++ {
		if v := <-results; v != "index" {
			t.Fatalf("lookup %d got %v", i, v)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for _, v := range []uint64{ver, tbl.Version()} {
		if _, ok := tbl.JoinCacheGetAt("k", v); ok {
			t.Fatalf("overtaken build cached (served at version %d)", v)
		}
	}
	if s := tbl.JoinCacheStats(); s.Misses != 1 || s.Coalesced != lookups-1 || s.Entries != 0 {
		t.Fatalf("stats %+v, want 1 miss, %d coalesced, 0 entries", s, lookups-1)
	}
}
