package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/value"
)

func randomGraph(t *testing.T, n, m int) *storage.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return graphInstance(n, edges)
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for k := range want.Rows {
		if got.Rows[k].Psi != want.Rows[k].Psi {
			t.Fatalf("%s: row %d ψ=%v, want %v", label, k, got.Rows[k].Psi, want.Rows[k].Psi)
		}
		if !reflect.DeepEqual(got.Rows[k].RefIDs, want.Rows[k].RefIDs) {
			t.Fatalf("%s: row %d refs differ", label, k)
		}
	}
	if !reflect.DeepEqual(got.Universe, want.Universe) {
		t.Fatalf("%s: universe differs", label)
	}
	if got.IsProjection != want.IsProjection ||
		!reflect.DeepEqual(got.Groups, want.Groups) ||
		!reflect.DeepEqual(got.GroupPsi, want.GroupPsi) {
		t.Fatalf("%s: projection structure differs", label)
	}
}

// One probe pass must serve every aggregate shape bit-identically to a
// dedicated RunConfig of the same plan.
func TestCoreBuildEquivalence(t *testing.T) {
	inst := randomGraph(t, 40, 160)
	s := graphSchema()
	priv := []string{"Node"}
	queries := []string{
		triangleSQL,
		`SELECT SUM(e1.src) FROM Edge e1, Edge e2, Edge e3
			WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
			  AND e1.src < e2.src AND e2.src < e3.src`,
		`SELECT COUNT(DISTINCT e1.src) FROM Edge e1, Edge e2, Edge e3
			WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
			  AND e1.src < e2.src AND e2.src < e3.src`,
	}
	// All three share the triangle join; one core serves them all.
	core, err := RunCore(mustPlan(t, queries[0], s, priv), inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range queries {
		p := mustPlan(t, src, s, priv)
		want, err := RunConfig(p, inst, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Result(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, src, got, want)
	}
}

// The signed split served from a shared core (built for another aggregate of
// the same join) is the two sign-predicated non-negative runs: pos holds the
// ψ ≥ 0 rows, neg the ψ < 0 rows with ψ negated, each in join order.
func TestCoreSplitResultEquivalence(t *testing.T) {
	inst := randomGraph(t, 40, 160)
	s := graphSchema()
	priv := []string{"Node"}
	const from = ` FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`
	core, err := RunCore(mustPlan(t, "SELECT COUNT(*)"+from, s, priv), inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gotPos, gotNeg, err := core.SplitResult(mustPlan(t, "SELECT SUM(e1.src - e2.dst)"+from, s, priv), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPos.Rows) == 0 || len(gotNeg.Rows) == 0 {
		t.Fatalf("fixture must exercise both halves: %d pos, %d neg rows", len(gotPos.Rows), len(gotNeg.Rows))
	}
	wantPos, err := Run(mustPlan(t, "SELECT SUM(e1.src - e2.dst)"+from+" AND e1.src >= e2.dst", s, priv), inst)
	if err != nil {
		t.Fatal(err)
	}
	wantNeg, err := Run(mustPlan(t, "SELECT SUM(e2.dst - e1.src)"+from+" AND e1.src < e2.dst", s, priv), inst)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResolved(t, "pos", wantPos, gotPos)
	requireSameResolved(t, "neg", wantNeg, gotNeg)

	proj := mustPlan(t, "SELECT COUNT(DISTINCT e1.src)"+from, s, priv)
	if _, _, err := core.SplitResult(proj, nil); err == nil {
		t.Fatal("projection split should be rejected")
	}
}

// The group-by view served from a shared core: partition i is the run of the
// query with the predicate groupVar = groups[i] appended, row for row.
func TestCorePartitionedResultEquivalence(t *testing.T) {
	inst := randomGraph(t, 30, 120)
	s := graphSchema()
	priv := []string{"Node"}
	const from = ` FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`
	core, err := RunCore(mustPlan(t, "SELECT COUNT(*)"+from, s, priv), inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, "SELECT SUM(e2.dst)"+from, s, priv)
	gv := p.ColVar(sql.ColRef{Qualifier: "e1", Attr: "src"})
	groups := []value.V{value.IntV(0), value.IntV(3), value.IntV(7)}
	got, err := core.PartitionedResult(p, nil, gv, groups, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		want, err := Run(mustPlan(t, fmt.Sprintf("SELECT SUM(e2.dst)%s AND e1.src = %d", from, g.I), s, priv), inst)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResolved(t, fmt.Sprintf("partition %d", g.I), want, got[i])
	}
	if _, err := core.PartitionedResult(p, nil, gv, []value.V{value.IntV(1), value.IntV(1)}, false); err == nil {
		t.Fatal("duplicate partition values should be rejected")
	}
}

func TestCoreRejectsMismatchedPlan(t *testing.T) {
	inst := randomGraph(t, 20, 60)
	s := graphSchema()
	priv := []string{"Node"}
	core, err := RunCore(mustPlan(t, "SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src", s, priv), inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	other := mustPlan(t, "SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.src = e2.src", s, priv)
	if _, err := core.Result(other, nil); err == nil {
		t.Fatal("mismatched join structure must be rejected")
	}
}

func TestCoreCacheHitStaleAndEvict(t *testing.T) {
	inst := randomGraph(t, 20, 60)
	s := graphSchema()
	priv := []string{"Node"}
	cc := NewCoreCache(1)
	ctx := context.Background()

	pa := mustPlan(t, "SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src", s, priv)
	// COUNT vs SUM over the same join share one slot.
	pa2 := mustPlan(t, "SELECT SUM(e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src", s, priv)
	c1, hit, err := cc.Get(ctx, pa, inst, Config{})
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	c2, hit, err := cc.Get(ctx, pa2, inst, Config{})
	if err != nil || !hit || c2 != c1 {
		t.Fatalf("second get should share the core: hit=%v same=%v err=%v", hit, c1 == c2, err)
	}

	// Append invalidates: the stale core must not be served.
	inst.MustInsert("Edge", storage.Row{value.IntV(0), value.IntV(1)})
	_, hit, err = cc.Get(ctx, pa, inst, Config{})
	if err != nil || hit {
		t.Fatalf("post-append get must miss: hit=%v err=%v", hit, err)
	}

	// Cap 1: a different join structure evicts the slot.
	pb := mustPlan(t, "SELECT COUNT(*) FROM Edge", s, priv)
	if _, hit, err = cc.Get(ctx, pb, inst, Config{}); err != nil || hit {
		t.Fatalf("new structure must miss: hit=%v err=%v", hit, err)
	}
	if _, hit, err = cc.Get(ctx, pa, inst, Config{}); err != nil || hit {
		t.Fatalf("evicted structure must miss: hit=%v err=%v", hit, err)
	}

	st := cc.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Invalidations != 1 || st.Evictions < 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Concurrent lookups of one (signature, versions) pair must run exactly one
// probe pass — the flight map guarantees it regardless of interleaving —
// and every caller must get the same core.
func TestCoreCacheSingleFlight(t *testing.T) {
	inst := randomGraph(t, 40, 160)
	s := graphSchema()
	priv := []string{"Node"}
	cc := NewCoreCache(8)
	const goroutines = 16

	var wg sync.WaitGroup
	cores := make([]*Core, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := mustPlan(t, triangleSQL, s, priv)
			cores[g], _, errs[g] = cc.Get(context.Background(), p, inst, Config{})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if cores[g] != cores[0] {
			t.Fatalf("goroutine %d got a different core", g)
		}
	}
	st := cc.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 probe pass", st.Misses)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, goroutines-1)
	}
}
