package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/lp"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/tpch"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// recordingBounded hands out the wrapped truncator's bounders and keeps the
// latest one per τ, so a test can read the bound a pruned race stopped at.
// Serial runs only: the map is not synchronized.
type recordingBounded struct {
	*truncation.LPTruncator
	handed map[float64]*lp.DualBounder
}

func record(tr *truncation.LPTruncator) *recordingBounded {
	return &recordingBounded{LPTruncator: tr, handed: make(map[float64]*lp.DualBounder)}
}

func (r *recordingBounded) Bounder(tau float64) *lp.DualBounder {
	b := r.LPTruncator.Bounder(tau)
	r.handed[tau] = b
	return b
}

// tapNoise passes draws through from src and keeps them in draw order.
type tapNoise struct {
	src   dp.NoiseSource
	draws []float64
}

func (n *tapNoise) Laplace(scale float64) float64 {
	v := n.src.Laplace(scale)
	n.draws = append(n.draws, v)
	return v
}

// Where a pruned race stopped.
const (
	prunedAtZero     = iota // by the y = 0 bound
	prunedAtUniform         // by the uniform-λ bound
	prunedAfterSteps        // after at least one subgradient round
	numPruneStages
)

// runStages runs r serially with early stop, tapping cfg's noise, and
// counts its pruned races by the check that pruned them. Replaying the
// running best and each race's shift (noise − penalty, as Run computes it),
// a fresh bounder names the first check that proves the prune — the y = 0
// bound, the uniform bound, or neither — and the race's own bounder must
// have stopped exactly there: at that bound, or below the uniform bound
// after subgradient steps. A check that stops running, or runs too late,
// fails the test instead of being counted.
func runStages(t *testing.T, r *recordingBounded, cfg Config) (*Output, [numPruneStages]int) {
	t.Helper()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	tap := &tapNoise{src: cfg.Noise}
	cfg.Noise, cfg.EarlyStop, cfg.Workers = tap, true, 1
	out, err := Run(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	L := float64(dp.Log2Ceil(cfg.GSQ))
	penaltyFactor := L * math.Log(L/cfg.Beta) / cfg.Epsilon
	shift := make(map[float64]float64)
	for j, tau := range dp.TauGrid(cfg.GSQ) {
		shift[tau] = tap.draws[j] - penaltyFactor*tau
	}
	best, err := r.Value(0)
	if err != nil {
		t.Fatal(err)
	}
	var n [numPruneStages]int
	for _, race := range out.Races { // descending τ: the serial run's order
		if race.Solved && race.Noisy > best {
			best = race.Noisy
		}
		if !race.Pruned {
			continue
		}
		final := r.handed[race.Tau].Bound()
		fresh := r.LPTruncator.Bounder(race.Tau)
		zero := fresh.Bound()
		uniform := fresh.Tighten(1)
		var stage int
		var ok bool
		switch s := shift[race.Tau]; {
		case zero+s <= best:
			stage, ok = prunedAtZero, sameBits(final, zero)
		case uniform+s <= best:
			stage, ok = prunedAtUniform, sameBits(final, uniform)
		default:
			stage, ok = prunedAfterSteps, final < uniform
		}
		if !ok {
			t.Fatalf("τ=%g: prunable at stage %d (y=0 %v, uniform %v) but stopped at bound %v",
				race.Tau, stage, zero, uniform, final)
		}
		n[stage]++
	}
	return out, n
}

// earlyStopFixture is one LP truncator the early-stop equality tests race.
type earlyStopFixture struct {
	name string
	tr   *truncation.LPTruncator
}

// earlyStopFixtures returns the star instance's edge count (each join row
// references its two endpoints), a self-join over a random graph with hubs
// (each two-edge path references up to three individuals, and hubs share
// rows across many constraints), and an SPJA projection over the same graph
// (group rows with fixed capacities beside the τ-rows).
func earlyStopFixtures(t *testing.T) []earlyStopFixture {
	t.Helper()
	inst, s := starInstance(t, []int{3, 5, 9, 17, 30})
	fixtures := []earlyStopFixture{{"star", edgeTruncator(t, inst, s)}}

	inst = storage.NewInstance(s)
	const nodes = 40
	for v := int64(0); v < nodes; v++ {
		inst.MustInsert("Node", storage.Row{value.IntV(v)})
	}
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < 160; e++ {
		src := int64(rng.Intn(nodes))
		if rng.Intn(3) == 0 {
			src = int64(rng.Intn(4)) // hubs
		}
		inst.MustInsert("Edge", storage.Row{value.IntV(src), value.IntV(int64(rng.Intn(nodes)))})
	}
	for _, fx := range []struct{ name, sql string }{
		{"self-join", `SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`},
		{"projection", `SELECT COUNT(DISTINCT e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`},
	} {
		p, err := plan.Build(sql.MustParse(fx.sql), s, schema.PrivateSpec{Primary: []string{"Node"}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(p, inst)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, earlyStopFixture{fx.name, truncation.NewLPFromOccurrences(res)})
	}
	return fixtures
}

// tpchTruncator evaluates one benchmark query into its LP truncator.
func tpchTruncator(t *testing.T, inst *storage.Instance, name string) *truncation.LPTruncator {
	t.Helper()
	q := tpch.QueryByName(name)
	p, err := plan.Build(sql.MustParse(q.SQL), inst.Schema, schema.PrivateSpec{Primary: q.Primary})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	return truncation.NewLPFromOccurrences(res)
}

// earlyStopPin is the digest of every early-stop decision in
// TestEarlyStopDecisionsPinned, recorded before the cheap-first checks and
// the shared bounder skeleton existed. Early stop prunes only races that
// provably cannot win, so how fast bounds are computed, or in what order
// the same bounds are checked, must never move it.
const earlyStopPin = "d2455985bd0f81b692ec2e50e6e1c15fd7ae3ed0b2ac74512252638867c856ee"

// TestEarlyStopDecisionsPinned hashes, for TPC-H Q21, Q7, Q10 and Q8 under
// four seeded noise streams, every race's τ, pruned/solved flags and the bits
// of its exact and noisy values, plus each run's estimate and winner. The
// corpus is sized so that races are pruned by the y = 0 bound, by the
// uniform bound and after subgradient rounds, and others are solved.
func TestEarlyStopDecisionsPinned(t *testing.T) {
	inst := tpch.Generate(tpch.GenOptions{SF: 0.5, Seed: 1})
	h := sha256.New()
	var buf [8]byte
	putBits := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	var stages [numPruneStages]int
	solved := 0
	for _, name := range []string{"Q21", "Q7", "Q10", "Q8"} {
		tr := record(tpchTruncator(t, inst, name))
		for seed := int64(1); seed <= 4; seed++ {
			out, n := runStages(t, tr, Config{Epsilon: 0.8, GSQ: 1e5, Noise: dp.NewSource(seed)})
			for i := range n {
				stages[i] += n[i]
			}
			for _, r := range out.Races {
				putBits(r.Tau)
				var flags byte
				if r.Pruned {
					flags |= 1
				}
				if r.Solved {
					flags |= 2
					solved++
				}
				h.Write([]byte{flags})
				putBits(r.Value)
				putBits(r.Noisy)
			}
			putBits(out.Estimate)
			putBits(out.WinnerTau)
		}
	}
	t.Logf("pruned at y=0 %d, at uniform %d, after steps %d; solved %d",
		stages[prunedAtZero], stages[prunedAtUniform], stages[prunedAfterSteps], solved)
	if got := hex.EncodeToString(h.Sum(nil)); got != earlyStopPin {
		t.Fatalf("early-stop decisions moved: digest %s, pinned %s", got, earlyStopPin)
	}
	for i, n := range stages {
		if n == 0 {
			t.Errorf("no race pruned at stage %d: the corpus no longer exercises every prune path", i)
		}
	}
	if solved == 0 {
		t.Error("no race solved: the corpus no longer exercises the exact path")
	}
}
