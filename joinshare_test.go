package r2t

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// shareEdges builds a denser test graph than the triangle fixtures: a ring
// with chords, so SUM and COUNT answers are nontrivial at every version.
func shareEdges(n int64) [][2]int64 {
	var edges [][2]int64
	for i := int64(0); i < n; i++ {
		edges = append(edges, [2]int64{i, (i + 1) % n})
		if i%3 == 0 {
			edges = append(edges, [2]int64{i, (i + n/2) % n})
		}
	}
	return edges
}

const shareJoinSQL = ` FROM Edge e1, Edge e2 WHERE e1.dst = e2.src AND e1.src < e2.dst`

// shareVariants is the mixed-aggregate workload: every query lowers to the
// same join core but a different release. The seed keeps each released
// estimate deterministic so bit-equality against the unshared path is exact.
var shareVariants = []struct {
	sql    string
	signed bool
	seed   int64
}{
	{"SELECT COUNT(*)" + shareJoinSQL, false, 101},
	{"SELECT SUM(e1.src + 1)" + shareJoinSQL, false, 102},
	{"SELECT SUM(e1.src - e2.dst)" + shareJoinSQL, true, 103},
	{"SELECT COUNT(DISTINCT e1.src)" + shareJoinSQL, false, 104},
}

func shareOpts(signed bool, seed int64) Options {
	return Options{
		Epsilon: 1, GSQ: 256, Primary: []string{"Node"}, Beta: 0.1,
		Noise: NewNoiseSource(seed), EarlyStop: true,
		AllowNegativeSum: signed,
	}
}

// unsharedTwin is a second DB over db's instance with join sharing off: every
// query through it runs its own private probe pass, and db's cache counters
// never see it. It is the reference side of every sharing equivalence gate.
func unsharedTwin(db *DB) *DB {
	twin := NewDBWithInstance(db.Instance())
	twin.SetJoinShareCap(0)
	return twin
}

func sameAnswer(a, b *Answer) bool {
	return math.Float64bits(a.Estimate) == math.Float64bits(b.Estimate) &&
		math.Float64bits(a.TrueAnswer) == math.Float64bits(b.TrueAnswer) &&
		math.Float64bits(a.TauStar) == math.Float64bits(b.TauStar) &&
		a.NumResults == b.NumResults && a.Individuals == b.Individuals
}

// Shared evaluation must release bit-identical answers to the unshared path,
// for every aggregate shape over one core.
func TestJoinShareBitIdentical(t *testing.T) {
	db := graphDB(t, shareEdges(60), 60)
	for _, v := range shareVariants {
		unshared, err := unsharedTwin(db).Query(v.sql, shareOpts(v.signed, v.seed))
		if err != nil {
			t.Fatal(err)
		}
		shared, err := db.Query(v.sql, shareOpts(v.signed, v.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(shared, unshared) {
			t.Errorf("%s: shared answer %+v differs from unshared %+v", v.sql, shared, unshared)
		}
	}
	st := db.JoinShareStats()
	// Four shared queries over one join structure: one probe, three hits.
	if st.Misses != 1 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 1 miss, 3 hits", st)
	}
}

// QueryBatch must agree bit-for-bit with issuing each item alone.
func TestQueryBatchBitIdentical(t *testing.T) {
	db := graphDB(t, shareEdges(60), 60)
	db.SetJoinShareCap(0) // isolate: batch-internal sharing only
	if db.JoinShareStats() != (JoinShareStats{}) {
		t.Fatal("disabled cache should report zero stats")
	}

	type itemSpec struct {
		sql    string
		signed bool
		seed   int64
	}
	specs := make([]itemSpec, 0, len(shareVariants)+1)
	for _, v := range shareVariants {
		specs = append(specs, itemSpec{v.sql, v.signed, v.seed})
	}
	// A second join structure in the same batch gets its own probe pass.
	specs = append(specs, itemSpec{edgeCount, false, 105})

	batch := make([]BatchQuery, len(specs))
	for i, sp := range specs {
		batch[i] = BatchQuery{SQL: sp.sql, Opt: shareOpts(sp.signed, sp.seed)}
	}
	got, err := db.QueryBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		// Fresh options (the batch consumed its noise sources) with the same
		// seed: solo evaluation must agree bit-for-bit.
		want, err := db.Query(sp.sql, shareOpts(sp.signed, sp.seed))
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if !sameAnswer(got[i], want) {
			t.Errorf("item %d (%s): batch answer %+v differs from solo %+v", i, sp.sql, got[i], want)
		}
	}
}

func TestQueryBatchValidatesUpfront(t *testing.T) {
	db := graphDB(t, shareEdges(12), 12)
	_, err := db.QueryBatch(context.Background(), []BatchQuery{
		{SQL: edgeCount, Opt: shareOpts(false, 1)},
		{SQL: "SELECT COUNT(*) FROM Nowhere", Opt: shareOpts(false, 2)},
	})
	if err == nil {
		t.Fatal("bad item must fail the batch")
	}
	if _, err := db.QueryBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch must fail")
	}
}

// Concurrent mixed-aggregate queries over one join core must single-flight
// the probe pass: with no Appends, exactly one probe per core; after an
// Append, exactly one more. Answers stay bit-identical to the unshared path
// throughout. Run under -race this is the coalescing gate of DESIGN.md §12.
func TestJoinShareSingleFlightConcurrent(t *testing.T) {
	db := graphDB(t, shareEdges(48), 48)

	// Unshared reference answers at version 0.
	want := make([]*Answer, len(shareVariants))
	for i, v := range shareVariants {
		a, err := unsharedTwin(db).Query(v.sql, shareOpts(v.signed, v.seed))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}

	const rounds = 4
	run := func(wantRound []*Answer) {
		var wg sync.WaitGroup
		errs := make(chan error, rounds*len(shareVariants))
		for r := 0; r < rounds; r++ {
			for i, v := range shareVariants {
				wg.Add(1)
				go func(i int, sql string, signed bool, seed int64) {
					defer wg.Done()
					got, err := db.Query(sql, shareOpts(signed, seed))
					if err != nil {
						errs <- err
						return
					}
					if !sameAnswer(got, wantRound[i]) {
						errs <- fmt.Errorf("%s: shared answer %+v differs from unshared %+v", sql, got, wantRound[i])
					}
				}(i, v.sql, v.signed, v.seed)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	run(want)
	st := db.JoinShareStats()
	if st.Misses != 1 {
		t.Fatalf("after concurrent round: misses = %d, want exactly 1 probe pass (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != uint64(rounds*len(shareVariants)-1) {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", st.Hits+st.Coalesced, rounds*len(shareVariants)-1, st)
	}

	// An Append must invalidate the core: exactly one more probe, new
	// reference answers.
	if err := db.Insert("Edge", Int(0), Int(5)); err != nil {
		t.Fatal(err)
	}
	for i, v := range shareVariants {
		a, err := unsharedTwin(db).Query(v.sql, shareOpts(v.signed, v.seed))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	run(want)
	if st := db.JoinShareStats(); st.Misses != 2 {
		t.Fatalf("after append round: misses = %d, want 2 (stats %+v)", st.Misses, st)
	}
}

// Appends interleaved between concurrent query rounds: each round's shared
// answers must be bit-identical to the unshared answers at that version, and
// the probe count is exactly one per (core, version) — appends+1 in total.
// (Rounds are separated by barriers: a query truly racing an Append may
// legitimately snapshot a self-joined table at two different versions —
// shared and unshared engines alike — so per-version bit-equality is only
// defined between appends.)
func TestJoinShareAppendInterleaved(t *testing.T) {
	const nodes = 36
	db := graphDB(t, shareEdges(nodes), nodes)

	// Extra edges appended between rounds; all endpoints already exist.
	appends := [][2]int64{{1, 7}, {2, 9}, {3, 11}}

	// Reference answers per version per variant, computed unshared on frozen
	// clones (the mechanism is deterministic given instance + seed).
	refs := make([][]*Answer, len(appends)+1)
	clone := db.Instance().Clone()
	for ver := 0; ver <= len(appends); ver++ {
		vdb := NewDBWithInstance(clone.Clone())
		vdb.SetJoinShareCap(0)
		refs[ver] = make([]*Answer, len(shareVariants))
		for i, v := range shareVariants {
			a, err := vdb.Query(v.sql, shareOpts(v.signed, v.seed))
			if err != nil {
				t.Fatal(err)
			}
			refs[ver][i] = a
		}
		if ver < len(appends) {
			if err := clone.Insert("Edge", Row{Int(appends[ver][0]), Int(appends[ver][1])}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for ver := 0; ver <= len(appends); ver++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(shareVariants))
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, v := range shareVariants {
					got, err := db.Query(v.sql, shareOpts(v.signed, v.seed))
					if err != nil {
						errs <- err
						return
					}
					if !sameAnswer(got, refs[ver][i]) {
						errs <- fmt.Errorf("worker %d version %d %s: answer %+v differs from unshared %+v", w, ver, v.sql, got, refs[ver][i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if st := db.JoinShareStats(); st.Misses != uint64(ver+1) {
			t.Fatalf("after version %d: misses = %d, want exactly one probe per (core, version) = %d (stats %+v)", ver, st.Misses, ver+1, st)
		}
		if ver < len(appends) {
			if err := db.Insert("Edge", Int(appends[ver][0]), Int(appends[ver][1])); err != nil {
				t.Fatal(err)
			}
		}
	}
}
