package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/tpch"
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
	// Run fails closed on every parameter Options.Validate rejects, NaN and
	// ±Inf included, with an error naming the parameter: a non-finite ε would
	// release the exact answer with no noise, a NaN ε or β would release 0,
	// and a non-finite GS_Q would size the τ grid from garbage.
	tr := &fakeTruncator{answer: 64, tauStar: 2}
	for _, c := range []struct {
		name  string
		cfg   Config
		param string
	}{
		{"ε=0", Config{Epsilon: 0, GSQ: 16}, "ε"},
		{"ε=+Inf", Config{Epsilon: math.Inf(1), GSQ: 16}, "ε"},
		{"ε=NaN", Config{Epsilon: math.NaN(), GSQ: 16}, "ε"},
		{"GSQ<2", Config{Epsilon: 1, GSQ: 1}, "GS_Q"},
		{"GSQ=NaN", Config{Epsilon: 1, GSQ: math.NaN()}, "GS_Q"},
		{"GSQ=+Inf", Config{Epsilon: 1, GSQ: math.Inf(1)}, "GS_Q"},
		{"β≥1", Config{Epsilon: 1, GSQ: 16, Beta: 2}, "β"},
		{"β=NaN", Config{Epsilon: 1, GSQ: 16, Beta: math.NaN()}, "β"},
	} {
		c.cfg.Noise = dp.NewSource(1)
		out, err := Run(tr, c.cfg)
		if err == nil {
			t.Errorf("%s: should fail, released %v", c.name, out.Estimate)
			continue
		}
		if !strings.Contains(err.Error(), c.param) || strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: want a validation error naming %s, got %v", c.name, c.param, err)
		}
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
	_, err := Run(&errTruncator{failAt: 8}, Config{Epsilon: 1, GSQ: 64, Noise: dp.ZeroNoise{}})
	if err == nil {
		t.Fatal("error should propagate")
	}
	// Failure at τ=0 (the floor) also propagates.
	_, err = Run(&errTruncator{failAt: 0}, Config{Epsilon: 1, GSQ: 64, Noise: dp.ZeroNoise{}})
	if err == nil {
		t.Fatal("floor error should propagate")
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
	// cannot win, and the races that survive are solved exactly. Pruning is
	// how every production caller runs, so this is the gate that it changes
	// only speed.
	same := func(name string, tr *truncation.LPTruncator, cfg Config, seed int64) {
		t.Helper()
		cfg.Noise = dp.NewSource(seed)
		plainOut, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Noise, cfg.EarlyStop = dp.NewSource(seed), true
		earlyOut, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(plainOut.Estimate, earlyOut.Estimate) || plainOut.WinnerTau != earlyOut.WinnerTau {
			t.Fatalf("%s ε=%g seed %d: early stop %v (τ=%g) != plain %v (τ=%g)", name, cfg.Epsilon, seed,
				earlyOut.Estimate, earlyOut.WinnerTau, plainOut.Estimate, plainOut.WinnerTau)
		}
	}
	// ε = 4 makes most releases beat the floor, so the equality is not
	// mostly 0 == 0.
	for _, fx := range earlyStopFixtures(t) {
		for _, eps := range []float64{1, 4} {
			for seed := int64(0); seed < 50; seed++ {
				same(fx.name, fx.tr, Config{Epsilon: eps, GSQ: 256}, seed)
			}
		}
	}
	// Every TPC-H query at the scale where pruning pays, at the paper's ε and
	// a conservative GS_Q.
	inst := tpch.Generate(tpch.GenOptions{SF: 0.5, Seed: 1})
	for _, q := range tpch.Queries() {
		tr := tpchTruncator(t, inst, q.Name)
		for seed := int64(1); seed <= 8; seed++ {
			same(q.Name, tr, Config{Epsilon: 0.8, GSQ: 1e5}, seed)
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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func ExampleRun() {
	tr := &fakeTruncator{answer: 9992, tauStar: 32}
	out, _ := Run(tr, Config{Epsilon: 1, Beta: 0.1, GSQ: 256, Noise: dp.ZeroNoise{}})
	fmt.Printf("winner τ = %v\n", out.WinnerTau)
	// Output: winner τ = 32
}
