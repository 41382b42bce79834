package lp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// gridTaus is the τ schedule used across the equivalence tests — the same
// power-of-two ladder R2T races, plus fractional and boundary values.
var gridTaus = []float64{0, 0.5, 1, 2, 3, 4, 8, 16, 32, 64, 1e6}

// allTauRows designates every row of p as a τ-row.
func allTauRows(p *Problem) []int {
	rows := make([]int, len(p.Rows))
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// materialize builds the concrete per-τ problem the grid solver represents
// implicitly: τ substituted into the designated rows, everything else copied.
func materialize(p *Problem, tauRows []int, tau float64) *Problem {
	q := NewProblem(p.NumVars)
	copy(q.C, p.C)
	copy(q.UB, p.UB)
	isTau := make([]bool, len(p.Rows))
	for _, i := range tauRows {
		isTau[i] = true
	}
	for i, r := range p.Rows {
		b := r.B
		if isTau[i] {
			b = tau
		}
		q.AddRow(r.Idx, r.Coef, b)
	}
	return q
}

// gridCorpus returns the structural test corpus: stars, cliques, wedge
// graphs, and random problems (built with placeholder τ = 0).
func gridCorpus() []*Problem {
	corpus := []*Problem{
		NewProblem(0),
		starLP(1, 0), starLP(8, 0), starLP(32, 0),
		cliqueLP(3, 0), cliqueLP(4, 0), cliqueLP(5, 0),
		wedgeProblem(60, 3, 0, 3),
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		corpus = append(corpus, randomProblem(rng))
	}
	return corpus
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireBitwiseEqual asserts two solutions of the same problem are exactly
// identical: status, objective, and every primal/dual entry bit for bit.
func requireBitwiseEqual(t *testing.T, tag string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", tag, got.Status, want.Status)
	}
	if !sameBits(got.Objective, want.Objective) {
		t.Fatalf("%s: objective %v (bits %x), want %v (bits %x)",
			tag, got.Objective, math.Float64bits(got.Objective),
			want.Objective, math.Float64bits(want.Objective))
	}
	for k := range want.X {
		if !sameBits(got.X[k], want.X[k]) {
			t.Fatalf("%s: X[%d] = %v, want %v", tag, k, got.X[k], want.X[k])
		}
	}
	for i := range want.Y {
		if !sameBits(got.Y[i], want.Y[i]) {
			t.Fatalf("%s: Y[%d] = %v, want %v", tag, i, got.Y[i], want.Y[i])
		}
	}
}

func TestGridSolveTauBitwiseEqualsSolve(t *testing.T) {
	for pi, p := range gridCorpus() {
		tauRows := allTauRows(p)
		g, err := NewGridSolver(p, tauRows)
		if err != nil {
			t.Fatalf("problem %d: NewGridSolver: %v", pi, err)
		}
		for _, tau := range gridTaus {
			want, err := Solve(materialize(p, tauRows, tau), Options{})
			if err != nil {
				t.Fatalf("problem %d τ=%g: Solve: %v", pi, tau, err)
			}
			got, err := g.SolveTau(tau, Options{})
			if err != nil {
				t.Fatalf("problem %d τ=%g: SolveTau: %v", pi, tau, err)
			}
			requireBitwiseEqual(t, tagOf(pi, tau), got, want)
		}
	}
}

func tagOf(pi int, tau float64) string {
	return "problem " + itoa(pi) + " τ=" + ftoa(tau)
}

func itoa(i int) string { return string(rune('0'+i/10)) + string(rune('0'+i%10)) }
func ftoa(f float64) string {
	if f == math.Trunc(f) && f < 100 {
		return itoa(int(f))
	}
	return "frac"
}

func TestGridScheduleBitwiseEqualsSolve(t *testing.T) {
	for pi, p := range gridCorpus() {
		tauRows := allTauRows(p)
		g, err := NewGridSolver(p, tauRows)
		if err != nil {
			t.Fatalf("problem %d: %v", pi, err)
		}
		sols, err := g.SolveSchedule(gridTaus, Options{})
		if err != nil {
			t.Fatalf("problem %d: SolveSchedule: %v", pi, err)
		}
		for ti, tau := range gridTaus {
			want, err := Solve(materialize(p, tauRows, tau), Options{})
			if err != nil {
				t.Fatalf("problem %d τ=%g: %v", pi, tau, err)
			}
			requireBitwiseEqual(t, tagOf(pi, tau), sols[ti], want)
		}
	}
}

func TestGridMixedFixedAndTauRows(t *testing.T) {
	// Truncation problems mix fixed-capacity group rows with τ-capacity rows;
	// only the designated rows move with τ.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng)
		if len(p.Rows) < 2 {
			continue
		}
		var tauRows []int
		for i := range p.Rows {
			if i%2 == 0 {
				tauRows = append(tauRows, i)
			}
		}
		g, err := NewGridSolver(p, tauRows)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, tau := range gridTaus {
			want, err := Solve(materialize(p, tauRows, tau), Options{})
			if err != nil {
				t.Fatalf("trial %d τ=%g: %v", trial, tau, err)
			}
			got, err := g.SolveTau(tau, Options{})
			if err != nil {
				t.Fatalf("trial %d τ=%g: %v", trial, tau, err)
			}
			requireBitwiseEqual(t, "mixed trial", got, want)
		}
	}
}

func TestGridBounderMatchesNewDualBounder(t *testing.T) {
	// The grid's Bounder must reproduce the standalone bounder's bound
	// sequence exactly — core.Run's early-stop pruning decisions depend on it.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng)
		tauRows := allTauRows(p)
		g, err := NewGridSolver(p, tauRows)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, tau := range []float64{0, 1, 4, 16} {
			ref := NewDualBounder(materialize(p, tauRows, tau))
			got := g.Bounder(tau)
			if !sameBits(ref.Bound(), got.Bound()) {
				t.Fatalf("trial %d τ=%g: initial bound %v != %v", trial, tau, got.Bound(), ref.Bound())
			}
			for step := 0; step < 8; step++ {
				a, b := ref.Tighten(3), got.Tighten(3)
				if !sameBits(a, b) {
					t.Fatalf("trial %d τ=%g step %d: bound %v != %v", trial, tau, step, b, a)
				}
			}
		}
	}
}

// dualBoundPin is the digest of TestDualBoundSequencePinned's bound
// sequences, recorded when every bounder still rebuilt its column sums and
// re-sorted its breakpoints per call. R2T's early-stop decisions compare
// these bounds against noisy values, so a kernel change that moves one ulp
// must show up here rather than as a silently different pruned/solved split.
const dualBoundPin = "7dcc316c32fcbe6faa10ff36fb37e1880ae0a0783e4c35ff4121b470d659ed34"

func TestDualBoundSequencePinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		// Unit rows (the truncation shape, duplicates included) and general
		// coefficients, over non-dyadic bounds so rounding order matters.
		n, m := 20+rng.Intn(200), 5+rng.Intn(60)
		p := NewProblem(n)
		for k := 0; k < n; k++ {
			p.C[k] = 1
			if rng.Intn(5) == 0 {
				p.C[k] = rng.Float64()*3 - 0.5
			}
			p.UB[k] = rng.Float64() * 7
		}
		for i := 0; i < m; i++ {
			var idx []int
			var cf []float64
			for j := 1 + rng.Intn(12); j > 0; j-- {
				idx = append(idx, rng.Intn(n))
				c := 1.0
				if trial%2 == 1 {
					c = 0.1 + rng.Float64()*2
				}
				cf = append(cf, c)
			}
			p.AddRow(idx, cf, rng.Float64()*10)
		}
		var tauRows []int
		for i := range p.Rows {
			if rng.Intn(4) > 0 {
				tauRows = append(tauRows, i)
			}
		}
		g, err := NewGridSolver(p, tauRows)
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []float64{0.3, 1, 2, 8, 64} {
			ref, got := NewDualBounder(materialize(p, tauRows, tau)), g.Bounder(tau)
			put(got.Bound())
			// core.Run's schedule: the uniform step, round 0's remaining 19
			// steps, then full rounds.
			for _, iters := range []int{1, 19, 20, 20, 20} {
				a, b := ref.Tighten(iters), got.Tighten(iters)
				if !sameBits(a, b) {
					t.Fatalf("trial %d τ=%g: grid bound %v != materialized %v", trial, tau, b, a)
				}
				put(b)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != dualBoundPin {
		t.Fatalf("dual bound sequences moved: digest %s, pinned %s", got, dualBoundPin)
	}
}

func TestGridBounderSharesSkeleton(t *testing.T) {
	// Everything τ-independent — the CSR rows, the y = 0 bound, the sorted
	// uniform breakpoints — is built once per grid: every bounder points at
	// one skeleton, a new bounder copies no rows (one allocation, the
	// bounder itself), and a subgradient step allocates nothing.
	p := wedgeProblem(60, 3, 0, 3)
	g, err := NewGridSolver(p, allTauRows(p))
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Bounder(4), g.Bounder(16)
	if a.sk != b.sk {
		t.Fatal("bounders do not share one skeleton")
	}
	if n := testing.AllocsPerRun(50, func() { g.Bounder(8) }); n > 1 {
		t.Fatalf("Bounder allocates %v times, want 1", n)
	}
	a.Tighten(2) // the uniform step, then the first subgradient step sizes the scratch
	if n := testing.AllocsPerRun(50, func() { a.Tighten(1) }); n != 0 {
		t.Fatalf("subgradient step allocates %v times, want 0", n)
	}
}

func TestGridConcurrentSolves(t *testing.T) {
	// SolveTau and Bounder must be safe for concurrent use (core.Run's race
	// workers), including the first Bounder calls, which race to build the
	// shared skeleton.
	p := wedgeProblem(50, 3, 0, 9)
	tauRows := allTauRows(p)
	g, err := NewGridSolver(p, tauRows)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[float64]*Solution)
	wantBound := make(map[float64]float64)
	taus := []float64{1, 2, 4, 8, 16, 32}
	for _, tau := range taus {
		sol, err := Solve(materialize(p, tauRows, tau), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[tau] = sol
		wantBound[tau] = NewDualBounder(materialize(p, tauRows, tau)).Tighten(40)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tau := range taus {
				if b := g.Bounder(tau).Tighten(40); !sameBits(b, wantBound[tau]) {
					t.Errorf("τ=%g: bound %v, want %v", tau, b, wantBound[tau])
				}
				got, err := g.SolveTau(tau, Options{})
				if err != nil {
					t.Errorf("τ=%g: %v", tau, err)
					return
				}
				if !sameBits(got.Objective, want[tau].Objective) {
					t.Errorf("τ=%g: objective %v, want %v", tau, got.Objective, want[tau].Objective)
				}
			}
		}()
	}
	wg.Wait()
}

func TestGridRejectsBadInput(t *testing.T) {
	p := starLP(4, 0)
	if _, err := NewGridSolver(p, []int{len(p.Rows)}); err == nil {
		t.Fatal("expected error for out-of-range τ-row index")
	}
	g, err := NewGridSolver(p, allTauRows(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := g.SolveTau(tau, Options{}); err == nil {
			t.Fatalf("expected error for τ=%v", tau)
		}
		if _, err := g.SolveSchedule([]float64{1, tau}, Options{}); err == nil {
			t.Fatalf("expected schedule error for τ=%v", tau)
		}
	}
}

func TestGridScheduleOrderIndependent(t *testing.T) {
	// Results are keyed to the schedule's order but solved ascending; a
	// shuffled schedule returns the same per-τ solutions.
	p := cliqueLP(5, 0)
	g, err := NewGridSolver(p, allTauRows(p))
	if err != nil {
		t.Fatal(err)
	}
	asc := []float64{1, 2, 4, 8}
	desc := []float64{8, 4, 2, 1}
	sa, err := g.SolveSchedule(asc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := g.SolveSchedule(desc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range asc {
		requireBitwiseEqual(t, "order", sd[len(desc)-1-i], sa[i])
	}
}
