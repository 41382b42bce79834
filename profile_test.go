package r2t

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// trianglesDB builds 40 disjoint triangles — enough rows for every pipeline
// stage to do visible work.
func trianglesDB(t *testing.T) *DB {
	t.Helper()
	var edges [][2]int64
	for i := int64(0); i < 40; i++ {
		a, b, c := 3*i, 3*i+1, 3*i+2
		edges = append(edges, [2]int64{a, b}, [2]int64{b, c}, [2]int64{a, c})
	}
	return graphDB(t, edges, 120)
}

// TestProfileBitIdenticalEstimate: profiling is pure observation — with the
// same seeded noise, the released estimate (and every diagnostic the release
// depends on) is bit-identical with Profile on and off, for the plain and
// the signed-split pipelines.
func TestProfileBitIdenticalEstimate(t *testing.T) {
	run := func(profile bool) *Answer {
		db := trianglesDB(t)
		ans, err := db.Query(edgeCount, Options{
			Epsilon: 1, GSQ: 256, Primary: []string{"Node"},
			Noise: NewNoiseSource(7), Profile: profile,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	off := run(false)
	on := run(true)
	if math.Float64bits(off.Estimate) != math.Float64bits(on.Estimate) {
		t.Errorf("estimate %v (off) != %v (on)", off.Estimate, on.Estimate)
	}
	if off.TauStar != on.TauStar || off.WinnerTau != on.WinnerTau {
		t.Error("diagnostics diverge with profiling on")
	}
	if off.Profile != nil {
		t.Error("Profile must be nil when Options.Profile is off")
	}
	if on.Profile == nil {
		t.Error("Profile must be set when Options.Profile is on")
	}

	signed := func(profile bool) *Answer {
		db := ledgerDB(t)
		ans, err := db.Query("SELECT SUM(amount) FROM Txn", Options{
			Epsilon: 4, GSQ: 1024, Primary: []string{"Account"},
			AllowNegativeSum: true, Noise: NewNoiseSource(3), Profile: profile,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	off, on = signed(false), signed(true)
	if math.Float64bits(off.Estimate) != math.Float64bits(on.Estimate) {
		t.Errorf("signed split: estimate %v (off) != %v (on)", off.Estimate, on.Estimate)
	}
}

// TestProfileStagesSumWithinDuration: the stages are disjoint wall-clock
// intervals inside one evaluation, so their sum can never exceed the
// end-to-end Duration (beyond scheduler-granularity slack), and the pipeline
// stages that must run for this query all appear.
//
// The workload is a two-hop self-join on a path graph: node sensitivities
// vary (interior nodes sit in many two-hop results, end nodes in few), so the
// race grid has τ values both below and above the per-component thresholds —
// the simplex genuinely pivots AND whole components get redundancy-skipped,
// exercising every LP counter. (A triangle workload would not do: with every
// sensitivity exactly 2 and the grid starting at τ=2, all components skip and
// the simplex never runs.) GS_Q = 4 keeps the races few and their noise small
// enough that the dual bounds cannot prune both: at GS_Q = 256 every race is
// pruned and no LP is solved.
func TestProfileStagesSumWithinDuration(t *testing.T) {
	var edges [][2]int64
	for i := int64(0); i < 19; i++ {
		edges = append(edges, [2]int64{i, i + 1})
	}
	db := graphDB(t, edges, 20)
	const twoHop = `SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`
	ans, err := db.Query(twoHop, Options{
		Epsilon: 1, GSQ: 4, Primary: []string{"Node"},
		Noise: NewNoiseSource(1), Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ans.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	seen := map[string]bool{}
	for _, st := range p.Stages {
		seen[st.Stage] = true
		if st.Duration < 0 {
			t.Errorf("stage %s has negative duration %v", st.Stage, st.Duration)
		}
	}
	for _, want := range []string{"parse", "plan", "exec", "truncation-build", "lp-solve", "noise"} {
		if !seen[want] {
			t.Errorf("profile missing stage %q: %+v", want, p.Stages)
		}
	}
	total := p.StageTotal()
	if slack := 2 * time.Millisecond; total > ans.Duration+slack {
		t.Errorf("stage total %v exceeds end-to-end duration %v", total, ans.Duration)
	}
	if p.Counters["simplex_iters"] == 0 || p.Counters["lp_components"] == 0 {
		t.Errorf("LP counters not harvested: %v", p.Counters)
	}
	if p.Counters["grid_redundant_skips"] == 0 {
		t.Errorf("redundancy skips not harvested: %v", p.Counters)
	}
	if p.Counters["exec_rows_probed"] == 0 {
		t.Errorf("exec counters not harvested: %v", p.Counters)
	}

	// The renderer carries the breakdown and the privacy marking.
	out := ExplainAnalyze(ans)
	for _, frag := range []string{"NON-PRIVATE", "lp-solve", "total"} {
		if !strings.Contains(out, frag) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", frag, out)
		}
	}
}

// TestSignedSplitHalves: the two halves of a signed split are attributable —
// every race carries its Half tag, both winners are reported, and τ* is the
// max over the halves.
func TestSignedSplitHalves(t *testing.T) {
	db := ledgerDB(t)
	ans, err := db.Query("SELECT SUM(amount) FROM Txn", Options{
		Epsilon: 4, GSQ: 1024, Primary: []string{"Account"},
		AllowNegativeSum: true, Noise: NewNoiseSource(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := 0, 0
	for _, r := range ans.Races {
		switch r.Half {
		case "+":
			pos++
		case "-":
			neg++
		default:
			t.Fatalf("race τ=%g has no half tag (%q)", r.Tau, r.Half)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("races not tagged for both halves: %d positive, %d negative", pos, neg)
	}
	if ans.WinnerTau == 0 || ans.WinnerTauNeg == 0 {
		t.Errorf("winners: τ⁺=%g τ⁻=%g, want both reported", ans.WinnerTau, ans.WinnerTauNeg)
	}
	// Unsigned runs leave both the tag and the negative winner empty.
	db2 := trianglesDB(t)
	ans2, err := db2.Query(edgeCount, Options{
		Epsilon: 1, GSQ: 256, Primary: []string{"Node"}, Noise: NewNoiseSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans2.WinnerTauNeg != 0 {
		t.Errorf("unsigned run has WinnerTauNeg = %g", ans2.WinnerTauNeg)
	}
	for _, r := range ans2.Races {
		if r.Half != "" {
			t.Errorf("unsigned race tagged %q", r.Half)
		}
	}
}

// TestConcurrentAppendQuery exercises the build-index invalidation contract
// under -race: queries snapshot (rows, version) up front, Append bumps the
// version and clears the join cache, and JoinCacheAt refuses to serve or
// store an index across versions. A query racing Appends must see a
// consistent prefix — for a pure join, a result count between the pre- and
// post-append counts — and never a torn row or a poisoned cached index.
func TestConcurrentAppendQuery(t *testing.T) {
	s := MustSchema(
		&Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
	db := NewDB(s)
	const nodes = 64
	for i := int64(0); i < nodes; i++ {
		if err := db.Insert("Node", Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Seed a path 0→1→…→15; two-hop query counts len(path)−1 pairs.
	seed := int64(16)
	for i := int64(0); i < seed; i++ {
		if err := db.Insert("Edge", Int(i), Int((i+1)%nodes)); err != nil {
			t.Fatal(err)
		}
	}
	const twoHop = `SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)

	// Writers extend the path concurrently (Append is the only write path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := seed; i < nodes-1; i++ {
			if err := db.Insert("Edge", Int(i), Int(i+1)); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers run the self-join (which probes — and caches — a table-side
	// index on Edge) while the writer appends.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prof, err := db.Sensitivities(twoHop, []string{"Node"})
				if err != nil {
					errs <- err
					return
				}
				// Monotone bounds: appends only ever add join results.
				if prof.JoinResults < int(seed-1) || prof.JoinResults > nodes-2 {
					errs <- fmt.Errorf("join result count %d outside monotone bounds [%d, %d]", prof.JoinResults, seed-1, nodes-2)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Let the race run briefly, then stop readers.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Settled state: the full path is visible and the final count is exact.
	prof, err := db.Sensitivities(twoHop, []string{"Node"})
	if err != nil {
		t.Fatal(err)
	}
	if prof.JoinResults != nodes-2 {
		t.Fatalf("settled two-hop count %d, want %d", prof.JoinResults, nodes-2)
	}
}
