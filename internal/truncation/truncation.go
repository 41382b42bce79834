// Package truncation implements the truncated query estimators Q(I,τ) that
// R2T races (Sections 6–7): naive truncation for self-join-free queries and
// the LP-based operators for SJA and SPJA queries. Every operator satisfies
// the three R2T properties — GS of Q(·,τ) at most τ; Q(I,τ) ≤ Q(I); and
// Q(I,τ) = Q(I) once τ ≥ τ*(I) — with τ*(I) = DS_Q(I) for SJA and IS_Q(I)
// for SPJA queries.
//
// The paper's SPJA LP uses auxiliary variables v_l ≤ Σ_{k∈D_l} u_k. Because
// the projection groups D_l partition the join results, that LP is equivalent
// to a pure packing LP in the u's alone with one extra capacity row per
// projected result: Σ_{k∈D_l} u_k ≤ ψ(p_l). (Substituting u=w and
// v_l = Σ_{k∈D_l} w_k converts feasible points both ways without changing the
// objective.) This keeps the whole system inside one exact solver.
package truncation

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"r2t/internal/exec"
	"r2t/internal/lp"
	"r2t/internal/obs"
)

// Truncator computes the truncated query value Q(I,τ) for any τ ≥ 0.
type Truncator interface {
	// Value returns Q(I,τ). It must be exact: R2T's privacy proof is a
	// property of the optimum.
	Value(tau float64) (float64, error)
	// TrueAnswer returns Q(I) = Q(I, ∞).
	TrueAnswer() float64
	// TauStar returns τ*(I), the smallest τ at which Value(τ) = TrueAnswer().
	TauStar() float64
}

// LPTruncator is the LP-based Q(I,τ) for SJA and SPJA queries. It pre-builds
// the constraint structure once; all τ evaluations share one lp.GridSolver
// skeleton (presolve, duplicate-merge, and component decomposition are
// computed once), so racing the full τ grid costs little more than one solve.
type LPTruncator struct {
	psi      []float64 // ψ(q_k) per LP variable (join results with ψ > 0)
	capRows  [][]int   // C_j: variables referencing individual j
	grpRows  [][]int   // D_l: variables per projected result (SPJA only)
	grpB     []float64 // ψ(p_l) per group row
	answer   float64
	tauStar  float64
	solveOpt lp.Options
	rec      *obs.Recorder // nil = profiling off; harvests per-solve counters

	gridOnce sync.Once
	grid     *lp.GridSolver
	gridErr  error
}

// Occurrences is the occurrence form every operator reads: one row per join
// result q_k with its weight ψ(q_k) and the dense ids of the individuals it
// references, plus the SPJA projection groups. It is exec.Result — the
// executor emits it directly, with canonically numbered individuals, and
// generators that bypass the SQL engine build it with exec.FromSets.
type Occurrences = exec.Result

// FromResult returns res: an executor view already is the occurrence form.
func FromResult(res *exec.Result) *Occurrences { return res }

// NewLPFromOccurrences builds the LP truncation operator: one variable per
// join result with ψ > 0 in row order, one capacity row per referenced
// individual in id order, and one group row per projected result. Q(I) and
// τ* come from the same pass, over the variables: Value(τ) reaches Q(I) at
// τ = τ*.
func NewLPFromOccurrences(o *Occurrences) *LPTruncator {
	t := &LPTruncator{}
	varOf := make([]int, len(o.Rows))
	cap := make([][]int, len(o.Universe))
	sens := make([]float64, len(o.Universe))
	for k, row := range o.Rows {
		varOf[k] = -1
		if w := row.Psi; w > 0 {
			v := len(t.psi)
			varOf[k] = v
			t.psi = append(t.psi, w)
			t.answer += w
			for _, j := range row.RefIDs {
				cap[j] = append(cap[j], v)
				sens[j] += w
			}
		}
	}
	for _, s := range sens {
		if s > t.tauStar {
			t.tauStar = s
		}
	}
	for _, row := range cap {
		if len(row) > 0 {
			t.capRows = append(t.capRows, row)
		}
	}
	if o.Groups != nil {
		t.answer = 0
		for l, group := range o.Groups {
			var vars []int
			for _, k := range group {
				if varOf[k] >= 0 {
					vars = append(vars, varOf[k])
				}
			}
			t.grpRows = append(t.grpRows, vars)
			t.grpB = append(t.grpB, o.GroupPsi[l])
			t.answer += o.GroupPsi[l]
		}
	}
	return t
}

// problem instantiates the packing LP for a given τ.
func (t *LPTruncator) problem(tau float64) *lp.Problem {
	p := lp.NewProblem(len(t.psi))
	for k, w := range t.psi {
		p.UB[k] = w
		p.C[k] = 1
	}
	if len(t.grpRows) > 0 {
		// SPJA: the objective counts each group's capped mass; with the
		// partition substitution the u's themselves carry the objective.
		for l, vars := range t.grpRows {
			p.AddUnitRow(vars, t.grpB[l])
		}
	}
	for _, vars := range t.capRows {
		p.AddUnitRow(vars, tau)
	}
	return p
}

// gridSolver lazily builds the shared GridSolver skeleton: the problem at a
// placeholder τ = 0 with every capacity row designated as a τ-row. Safe for
// concurrent callers (core.Run's race workers).
func (t *LPTruncator) gridSolver() (*lp.GridSolver, error) {
	t.gridOnce.Do(func() {
		tauRows := make([]int, len(t.capRows))
		for i := range tauRows {
			tauRows[i] = len(t.grpRows) + i
		}
		t.grid, t.gridErr = lp.NewGridSolver(t.problem(0), tauRows)
	})
	return t.grid, t.gridErr
}

// Value solves the truncation LP at τ. Results are bit-identical to solving
// the materialized per-τ problem with lp.Solve.
func (t *LPTruncator) Value(tau float64) (float64, error) {
	if tau < 0 {
		return 0, fmt.Errorf("truncation: negative τ %g", tau)
	}
	if tau == 0 {
		return 0, nil // every variable is capped to zero by its capacity rows
	}
	g, err := t.gridSolver()
	if err != nil {
		return 0, err
	}
	sol, err := g.SolveTau(tau, t.solveOpt)
	if err != nil {
		return 0, err
	}
	return t.release(sol, tau)
}

// release guards the exactness contract shared by Value and Values, and
// harvests the solve's work counters into the recorder (pure observation:
// lp.Solution counters describe effort, never the optimum).
func (t *LPTruncator) release(sol *lp.Solution, tau float64) (float64, error) {
	if t.rec != nil {
		t.rec.Add(obs.CtrSimplexIters, int64(sol.Iters))
		t.rec.Add(obs.CtrSimplexPivots, int64(sol.Pivots))
		t.rec.Add(obs.CtrLPComponents, int64(sol.Components))
		t.rec.Add(obs.CtrRedundantSkips, int64(sol.RedundantSkips))
	}
	if sol.Status != lp.Optimal {
		// R2T's privacy proof is a property of the exact optimum; a partial
		// solve must not be released.
		return 0, fmt.Errorf("truncation: LP at τ=%g did not reach optimality (%v after %d iterations)", tau, sol.Status, sol.Iters)
	}
	return sol.Objective, nil
}

// Values evaluates Q(I,τ) for a whole τ schedule with amortized work — the
// τ-independent structure is reused, and every entry is bit-identical to the
// corresponding Value call (and hence to per-τ lp.Solve). core.Run uses this
// for the full race grid.
func (t *LPTruncator) Values(taus []float64) ([]float64, error) {
	out := make([]float64, len(taus))
	for _, tau := range taus {
		if tau < 0 {
			return nil, fmt.Errorf("truncation: negative τ %g", tau)
		}
	}
	pos := make([]float64, 0, len(taus))
	idx := make([]int, 0, len(taus))
	for i, tau := range taus {
		if tau > 0 { // τ = 0 entries stay at the exact floor 0
			pos = append(pos, tau)
			idx = append(idx, i)
		}
	}
	if len(pos) == 0 {
		return out, nil
	}
	g, err := t.gridSolver()
	if err != nil {
		return nil, err
	}
	sols, err := g.SolveSchedule(pos, t.solveOpt)
	if err != nil {
		return nil, err
	}
	for j, sol := range sols {
		v, err := t.release(sol, pos[j])
		if err != nil {
			return nil, err
		}
		out[idx[j]] = v
	}
	return out, nil
}

// SetSolveOptions overrides the LP solver options (the iteration-limit tests
// lower MaxIters; the defaults are correct for production use).
func (t *LPTruncator) SetSolveOptions(opt lp.Options) { t.solveOpt = opt }

// SetRecorder attaches a profiler; every subsequent solve folds its work
// counters (iterations, pivots, components, redundancy skips) into rec. A nil
// rec turns harvesting off. Must be set before concurrent Value callers start.
func (t *LPTruncator) SetRecorder(rec *obs.Recorder) { t.rec = rec }

// Bounder returns a dual bounder for the τ-LP, used by R2T's early stop. It
// shares the grid's dual skeleton, built once on first use; the bound
// sequence is identical to a bounder built on the materialized per-τ problem.
func (t *LPTruncator) Bounder(tau float64) *lp.DualBounder {
	if g, err := t.gridSolver(); err == nil {
		return g.Bounder(tau)
	}
	return lp.NewDualBounder(t.problem(tau))
}

// TrueAnswer returns Q(I).
func (t *LPTruncator) TrueAnswer() float64 { return t.answer }

// TauStar returns DS_Q(I) for SJA queries and IS_Q(I) for SPJA queries.
func (t *LPTruncator) TauStar() float64 { return t.tauStar }

// NumVariables reports the LP size (join results with positive weight).
func (t *LPTruncator) NumVariables() int { return len(t.psi) }

// NumCapacityRows reports the number of referenced individuals.
func (t *LPTruncator) NumCapacityRows() int { return len(t.capRows) }

// NaiveTruncator removes whole individuals whose sensitivity exceeds τ and
// sums the rest. It is a valid R2T truncator only for self-join-free SJA
// queries, where each join result references exactly one individual
// (Section 6); Example 1.2 shows it is not DP-safe with self-joins, so
// NewNaiveFromOccurrences rejects those inputs.
type NaiveTruncator struct {
	sens   []float64 // per-individual sensitivities, ascending
	prefix []float64 // prefix sums of sens
	answer float64
}

// NewNaiveFromOccurrences builds the naive operator; it fails if any join
// result references more than one individual (a self-join) or the query has
// a projection.
func NewNaiveFromOccurrences(o *Occurrences) (*NaiveTruncator, error) {
	if o.Groups != nil {
		return nil, fmt.Errorf("truncation: naive truncation does not support projection queries")
	}
	n := &NaiveTruncator{}
	sens := make([]float64, len(o.Universe))
	for _, row := range o.Rows {
		if len(row.RefIDs) > 1 {
			return nil, fmt.Errorf("truncation: naive truncation requires a self-join-free query (a join result references %d individuals)", len(row.RefIDs))
		}
		n.answer += row.Psi
		for _, j := range row.RefIDs {
			sens[j] += row.Psi
		}
	}
	for _, s := range sens {
		if s > 0 {
			n.sens = append(n.sens, s)
		}
	}
	sort.Float64s(n.sens)
	n.prefix = make([]float64, len(n.sens)+1)
	for i, s := range n.sens {
		n.prefix[i+1] = n.prefix[i] + s
	}
	return n, nil
}

// Value returns Σ_{S_j ≤ τ} S_j.
func (n *NaiveTruncator) Value(tau float64) (float64, error) {
	if tau < 0 {
		return 0, fmt.Errorf("truncation: negative τ %g", tau)
	}
	i := sort.SearchFloat64s(n.sens, math.Nextafter(tau, math.Inf(1)))
	return n.prefix[i], nil
}

// TrueAnswer returns Q(I).
func (n *NaiveTruncator) TrueAnswer() float64 { return n.answer }

// TauStar returns DS_Q(I): the largest per-individual sensitivity.
func (n *NaiveTruncator) TauStar() float64 {
	if len(n.sens) == 0 {
		return 0
	}
	return n.sens[len(n.sens)-1]
}

var (
	_ Truncator = (*LPTruncator)(nil)
	_ Truncator = (*NaiveTruncator)(nil)
)
