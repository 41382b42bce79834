package lp

import (
	"math"
	"testing"
)

// TestIterationLimitObjectiveNeverOverclaims pins the exactness contract the
// truncation operators rely on: a solve that runs out of iterations must say
// so in its Status, and whatever partial objective it reports must never
// exceed the true optimum (the partial point stays primal feasible, so its
// value is a valid lower bound — claiming more would let a non-optimal solve
// masquerade as the exact Q(I,τ) that R2T's privacy proof is about).
func TestIterationLimitObjectiveNeverOverclaims(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		p := cliqueLP(k, 2)
		full, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != Optimal {
			t.Fatalf("k=%d: unconstrained solve not optimal: %v", k, full.Status)
		}
		for iters := 1; iters <= 8; iters++ {
			sol, err := Solve(p, Options{MaxIters: iters, NoCrash: true})
			if err != nil {
				t.Fatalf("k=%d iters=%d: %v", k, iters, err)
			}
			if sol.Status == Optimal {
				// Claiming optimality while capped is fine only if the
				// objective really is the optimum.
				if math.Abs(sol.Objective-full.Objective) > 1e-9 {
					t.Fatalf("k=%d iters=%d: status optimal but objective %g != %g",
						k, iters, sol.Objective, full.Objective)
				}
				continue
			}
			if sol.Status != IterationLimit {
				t.Fatalf("k=%d iters=%d: status %v, want iteration-limit", k, iters, sol.Status)
			}
			if sol.Objective > full.Objective+1e-9 {
				t.Fatalf("k=%d iters=%d: partial objective %g overclaims optimum %g",
					k, iters, sol.Objective, full.Objective)
			}
			if v := p.MaxPrimalViolation(sol.X); v > 1e-6 {
				t.Fatalf("k=%d iters=%d: partial point infeasible by %g", k, iters, v)
			}
		}
	}
}

// TestGridSolverIterationLimitSurfaces: the grid solver must report
// iteration exhaustion through the same Status, not silently hand back a
// partial objective.
func TestGridSolverIterationLimitSurfaces(t *testing.T) {
	p := cliqueLP(8, 0)
	tauRows := make([]int, len(p.Rows))
	for i := range tauRows {
		tauRows[i] = i
	}
	g, err := NewGridSolver(p, tauRows)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.SolveTau(2, Options{MaxIters: 1, NoCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
	full, err := g.SolveTau(2, Options{})
	if err != nil || full.Status != Optimal {
		t.Fatalf("uncapped grid solve: %v, %v", full.Status, err)
	}
	if sol.Objective > full.Objective+1e-9 {
		t.Fatalf("partial grid objective %g overclaims optimum %g", sol.Objective, full.Objective)
	}
}
