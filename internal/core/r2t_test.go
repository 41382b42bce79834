package core

import (
	"fmt"
	"math"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/lp"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// starChain builds a graph of stars so that DS is controlled and the LP
// structure is nontrivial.
func starInstance(t *testing.T, stars []int) (*storage.Instance, *schema.Schema) {
	t.Helper()
	s := schema.MustNew(
		&schema.Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []schema.FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
	inst := storage.NewInstance(s)
	next := int64(0)
	add := func() int64 { v := next; next++; inst.MustInsert("Node", storage.Row{value.IntV(v)}); return v }
	for _, k := range stars {
		center := add()
		for i := 0; i < k; i++ {
			leaf := add()
			inst.MustInsert("Edge", storage.Row{value.IntV(center), value.IntV(leaf)})
			inst.MustInsert("Edge", storage.Row{value.IntV(leaf), value.IntV(center)})
		}
	}
	return inst, s
}

const edgeCountSQL = `SELECT count(*) FROM Node AS Node1, Node AS Node2, Edge
	WHERE Edge.src = Node1.ID AND Edge.dst = Node2.ID AND Node1.ID < Node2.ID`

func edgeTruncator(t *testing.T, inst *storage.Instance, s *schema.Schema) *truncation.LPTruncator {
	t.Helper()
	q := sql.MustParse(edgeCountSQL)
	p, err := plan.Build(q, s, schema.PrivateSpec{Primary: []string{"Node"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	return truncation.NewLPFromOccurrences(res)
}

func TestConfigValidation(t *testing.T) {
	tr := &fakeTruncator{answer: 10, tauStar: 2}
	if _, err := Run(tr, Config{Epsilon: 0, GSQ: 16}); err == nil {
		t.Error("ε=0 should fail")
	}
	if _, err := Run(tr, Config{Epsilon: 1, GSQ: 1}); err == nil {
		t.Error("GSQ<2 should fail")
	}
	if _, err := Run(tr, Config{Epsilon: 1, GSQ: 16, Beta: 2}); err == nil {
		t.Error("β≥1 should fail")
	}
}

// errTruncator fails at a chosen τ, for error-propagation tests.
type errTruncator struct{ failAt float64 }

func (e *errTruncator) Value(tau float64) (float64, error) {
	if tau == e.failAt {
		return 0, fmt.Errorf("synthetic failure at τ=%g", tau)
	}
	return tau, nil
}
func (e *errTruncator) TrueAnswer() float64 { return 100 }
func (e *errTruncator) TauStar() float64    { return 100 }

func TestTruncatorErrorsPropagate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(&errTruncator{failAt: 8}, Config{Epsilon: 1, GSQ: 64, Noise: dp.ZeroNoise{}, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: error should propagate", workers)
		}
		// Failure at τ=0 (the floor) also propagates.
		_, err = Run(&errTruncator{failAt: 0}, Config{Epsilon: 1, GSQ: 64, Noise: dp.ZeroNoise{}, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: floor error should propagate", workers)
		}
	}
}

// fakeTruncator is a minimal truncator: Q(I,τ) = min(answer, τ·slope).
type fakeTruncator struct {
	answer  float64
	tauStar float64
}

func (f *fakeTruncator) Value(tau float64) (float64, error) {
	if f.tauStar == 0 {
		return f.answer, nil
	}
	v := f.answer * tau / f.tauStar
	if v > f.answer {
		v = f.answer
	}
	return v, nil
}
func (f *fakeTruncator) TrueAnswer() float64 { return f.answer }
func (f *fakeTruncator) TauStar() float64    { return f.tauStar }

func TestZeroNoiseEstimateMatchesHandComputation(t *testing.T) {
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	cfg := Config{Epsilon: 1, Beta: 0.1, GSQ: 256, Noise: dp.ZeroNoise{}}
	out, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	L := 8.0
	penalty := L * math.Log(L/0.1)
	best := 0.0
	winner := 0.0
	for j := 1; j <= 8; j++ {
		tau := math.Pow(2, float64(j))
		v, _ := tr.Value(tau)
		cand := v - penalty*tau
		if cand > best {
			best = cand
			winner = tau
		}
	}
	if math.Abs(out.Estimate-best) > 1e-9 {
		t.Fatalf("estimate %g, want %g", out.Estimate, best)
	}
	if out.WinnerTau != winner {
		t.Fatalf("winner τ %g, want %g", out.WinnerTau, winner)
	}
	if len(out.Races) != 8 {
		t.Fatalf("races = %d, want 8", len(out.Races))
	}
}

func TestEstimateNeverExceedsAnswerOften(t *testing.T) {
	// Theorem 5.1, upper side: P(Q̃ > Q) ≤ β/2. Empirically with β=0.2.
	inst, s := starInstance(t, []int{4, 4, 8, 16})
	tr := edgeTruncator(t, inst, s)
	const runs = 300
	over := 0
	for seed := int64(0); seed < runs; seed++ {
		out, err := Run(tr, Config{Epsilon: 1, Beta: 0.2, GSQ: 64, Noise: dp.NewSource(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if out.Estimate > tr.TrueAnswer()+1e-9 {
			over++
		}
	}
	if frac := float64(over) / runs; frac > 0.2 {
		t.Errorf("estimate exceeded truth in %g of runs, theorem allows ≤ 0.10 (+slack)", frac)
	}
}

func TestTheoremErrorBound(t *testing.T) {
	// Theorem 5.1, lower side: with probability ≥ 1−β the error is at most
	// 4·L·ln(L/β)·τ*/ε. Count violations empirically.
	inst, s := starInstance(t, []int{2, 4, 8, 16, 16})
	tr := edgeTruncator(t, inst, s)
	cfg := Config{Epsilon: 0.8, Beta: 0.1, GSQ: 64}
	bound := ErrorBound(cfg, tr.TauStar())
	const runs = 200
	bad := 0
	for seed := int64(0); seed < runs; seed++ {
		c := cfg
		c.Noise = dp.NewSource(seed + 1000)
		out, err := Run(tr, c)
		if err != nil {
			t.Fatal(err)
		}
		if tr.TrueAnswer()-out.Estimate > bound {
			bad++
		}
	}
	if frac := float64(bad) / runs; frac > cfg.Beta {
		t.Errorf("error bound violated in %g of runs, theorem allows ≤ %g", frac, cfg.Beta)
	}
}

func TestEarlyStopMatchesPlain(t *testing.T) {
	// With identical noise streams, Algorithm 1 (early stop) must release
	// exactly the same bits as the plain algorithm: pruned races provably
	// cannot win, and the races that survive are solved exactly.
	// ε = 4 makes most releases beat the floor, so the equality is not
	// mostly 0 == 0.
	for _, fx := range earlyStopFixtures(t) {
		for _, eps := range []float64{1, 4} {
			for seed := int64(0); seed < 50; seed++ {
				plainOut, err := Run(fx.tr, Config{Epsilon: eps, GSQ: 256, Noise: dp.NewSource(seed)})
				if err != nil {
					t.Fatal(err)
				}
				earlyOut, err := Run(fx.tr, Config{Epsilon: eps, GSQ: 256, Noise: dp.NewSource(seed), EarlyStop: true})
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(plainOut.Estimate, earlyOut.Estimate) || plainOut.WinnerTau != earlyOut.WinnerTau {
					t.Fatalf("%s ε=%g seed %d: early stop %v (τ=%g) != plain %v (τ=%g)", fx.name, eps, seed,
						earlyOut.Estimate, earlyOut.WinnerTau, plainOut.Estimate, plainOut.WinnerTau)
				}
			}
		}
	}
}

func TestEarlyStopPrunesSomething(t *testing.T) {
	// Both prune paths must stay live: races stopped by a bound that needs
	// no subgradient step (y = 0 or uniform) and races stopped after steps.
	inst, s := starInstance(t, []int{2, 2, 2, 30})
	tr := record(edgeTruncator(t, inst, s))
	var stages [numPruneStages]int
	for seed := int64(0); seed < 20; seed++ {
		_, n := runStages(t, tr, Config{Epsilon: 8, GSQ: 1 << 16, Noise: dp.NewSource(seed)})
		for i := range n {
			stages[i] += n[i]
		}
	}
	if stages[prunedAtZero]+stages[prunedAtUniform] == 0 {
		t.Error("early stop never pruned a race before its first subgradient step")
	}
	if stages[prunedAfterSteps] == 0 {
		t.Error("early stop never pruned a race after subgradient steps")
	}
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	// The released estimate must be bit-identical with any worker count;
	// only the pruned/solved split may differ (pruning is sound either way).
	for _, fx := range earlyStopFixtures(t) {
		for _, eps := range []float64{1, 4} {
			for seed := int64(0); seed < 20; seed++ {
				serial, err := Run(fx.tr, Config{Epsilon: eps, GSQ: 256, Noise: dp.NewSource(seed), EarlyStop: true})
				if err != nil {
					t.Fatal(err)
				}
				parallel, err := Run(fx.tr, Config{Epsilon: eps, GSQ: 256, Noise: dp.NewSource(seed), EarlyStop: true, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(serial.Estimate, parallel.Estimate) || serial.WinnerTau != parallel.WinnerTau {
					t.Fatalf("%s ε=%g seed %d: parallel %v (τ=%g) != serial %v (τ=%g)", fx.name, eps, seed,
						parallel.Estimate, parallel.WinnerTau, serial.Estimate, serial.WinnerTau)
				}
				if len(parallel.Races) != len(serial.Races) {
					t.Fatalf("%s seed %d: race counts differ", fx.name, seed)
				}
				for i := 1; i < len(parallel.Races); i++ {
					if parallel.Races[i].Tau >= parallel.Races[i-1].Tau {
						t.Fatal("parallel diagnostics not sorted by descending τ")
					}
				}
			}
		}
	}
}

func TestWorkersGOMAXPROCS(t *testing.T) {
	tr := &fakeTruncator{answer: 50, tauStar: 4}
	out, err := Run(tr, Config{Epsilon: 1, GSQ: 64, Noise: dp.ZeroNoise{}, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Races) != 6 {
		t.Fatalf("races = %d", len(out.Races))
	}
}

func TestRacesOrderedLargestFirst(t *testing.T) {
	tr := &fakeTruncator{answer: 100, tauStar: 4}
	out, err := Run(tr, Config{Epsilon: 1, GSQ: 64, Noise: dp.ZeroNoise{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out.Races); i++ {
		if out.Races[i].Tau >= out.Races[i-1].Tau {
			t.Fatalf("races not descending: %v then %v", out.Races[i-1].Tau, out.Races[i].Tau)
		}
	}
}

func TestErrorBoundFormula(t *testing.T) {
	cfg := Config{Epsilon: 2, Beta: 0.1, GSQ: 256}
	want := 4 * 8 * math.Log(8/0.1) * 5 / 2
	if got := ErrorBound(cfg, 5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ErrorBound = %g, want %g", got, want)
	}
}

// Interface conformance: the LP truncator is dual-bounded.
var _ DualBounded = (*truncation.LPTruncator)(nil)

// Silence unused-import lint for lp (used via the interface assertion above
// in type position only when EarlyStop is exercised).
var _ = lp.Options{}

func ExampleRun() {
	tr := &fakeTruncator{answer: 9992, tauStar: 32}
	out, _ := Run(tr, Config{Epsilon: 1, Beta: 0.1, GSQ: 256, Noise: dp.ZeroNoise{}})
	fmt.Printf("winner τ = %v\n", out.WinnerTau)
	// Output: winner τ = 32
}
