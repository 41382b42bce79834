// Grid solving. R2T races log₂(GS_Q) packing LPs that share one constraint
// structure and differ only in the capacity bound b = τ of the truncation
// rows (Sections 5–7). GridSolver computes everything τ-independent once —
// duplicate-row merging, c ≤ 0 fixings, redundancy thresholds, and the
// connected-component decomposition — and solves the whole τ schedule with
// amortized work:
//
//   - Redundancy is τ-monotone: a capacity row with Σ coef·ub ≤ τ is slack at
//     every feasible point, hence redundant at every larger τ. Each row is
//     therefore classified once per grid by its threshold Σ coef·ub instead of
//     being re-scanned per solve, and a whole component dies the moment τ
//     reaches the largest threshold among its rows.
//   - Components are found once on the full structure. Per τ they can only
//     split further (rows disappear as τ grows), so each per-τ component is
//     recovered by a cheap array-based union-find inside its parent block —
//     or, in the common all-rows-live case, reused verbatim from the cache.
//
// SolveTau and SolveSchedule replay exactly the pipeline of Solve — same
// presolve decisions, same component partition, same pivot sequence — so
// their results are bitwise identical to a fresh Solve of the materialized
// problem (R2T's privacy proof is a property of the exact optimum, and the
// released value must not depend on which entry point computed it).
package lp

import (
	"fmt"
	"math"
	"sync"

	"r2t/internal/fault"
)

// GridSolver solves a family of packing LPs sharing one structure, where the
// capacities of a designated set of rows (the τ-rows) are replaced by a
// scheduled τ and all other rows keep their fixed capacity. It is safe for
// concurrent use: the precomputed structure is immutable and per-solve
// scratch comes from pooled workspaces.
type GridSolver struct {
	p      *Problem // skeleton; τ-rows' B values are placeholders
	tauRow []bool   // per row: is B replaced by the scheduled τ?

	// τ-independent presolve products (immutable after construction).
	ubFixed []int       // live variables in no eligible row: x = ub at every τ
	rowIdx  [][]int     // merged rows, filtered of c ≤ 0 variables
	rowCf   [][]float64 //
	rowSum  []float64   // Σ coef·ub over each row's live members
	rowLive []bool      // row can be live at some τ (nonempty, not always-redundant)
	coarse  []gridComp  // components over all eligible rows

	// the dual bounders' shared skeleton, built on the first Bounder call
	dualOnce sync.Once
	dual     *dualSkeleton
}

// gridComp is one connected component of the full (τ → 0⁺) structure with its
// local LP cached: vars ascending, rows ascending, rows localized with B = 0
// placeholders. At a given τ the component's live rows are a subset, so the
// per-τ components are refinements of the coarse ones.
type gridComp struct {
	vars  []int // global variable ids, ascending
	rows  []int // global row ids, ascending
	c, ub []float64
	lrows []Row // localized; Idx/Coef shared, B = 0 placeholder
	base  []float64
	// minSum/maxSum bracket the component's τ-regimes: below minSum every row
	// is live (the cached block is exact); at or above maxSum every row is
	// redundant and the whole block fixes at its upper bounds. Fixed-capacity
	// rows never go redundant here (always-redundant ones are dropped at
	// construction), so any such row forces maxSum = +Inf.
	minSum float64
	maxSum float64
}

// NewGridSolver prepares the shared structure. tauRows lists the indices of
// the rows whose capacity is replaced by the scheduled τ; their placeholder B
// in p only needs to pass validation (0 works). The problem must not be
// mutated afterwards.
func NewGridSolver(p *Problem, tauRows []int) (*GridSolver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &GridSolver{p: p, tauRow: make([]bool, len(p.Rows))}
	for _, i := range tauRows {
		if i < 0 || i >= len(p.Rows) {
			return nil, fmt.Errorf("lp: τ-row index %d out of range", i)
		}
		g.tauRow[i] = true
	}

	// Merge duplicates and drop c ≤ 0 variables (fixed at 0 at every τ),
	// exactly as newWork + presolve do per solve.
	live := make([]bool, p.NumVars)
	for k := 0; k < p.NumVars; k++ {
		live[k] = p.C[k] > 0
	}
	m := len(p.Rows)
	g.rowIdx = make([][]int, m)
	g.rowCf = make([][]float64, m)
	g.rowSum = make([]float64, m)
	g.rowLive = make([]bool, m)
	for i, r := range p.Rows {
		idx, cf := mergeDuplicates(r.Idx, r.Coef)
		nIdx, nCf := idx[:0], cf[:0]
		sum := 0.0
		for j, k := range idx {
			if !live[k] {
				continue
			}
			nIdx = append(nIdx, k)
			nCf = append(nCf, cf[j])
			sum += cf[j] * p.UB[k]
		}
		g.rowIdx[i], g.rowCf[i], g.rowSum[i] = nIdx, nCf, sum
		// A row is eligible if it has live members and is not redundant at
		// every τ: fixed rows with Σ coef·ub ≤ B never bind, and τ-rows are
		// live for any τ < Σ coef·ub (rowSum = 0 means never).
		if len(nIdx) == 0 {
			continue
		}
		if g.tauRow[i] {
			g.rowLive[i] = sum > 0
		} else {
			g.rowLive[i] = sum > r.B
		}
	}

	g.buildCoarse(live)

	// Live variables in no eligible row are at their upper bound at every τ.
	inRow := make([]bool, p.NumVars)
	for i := range g.rowIdx {
		if !g.rowLive[i] {
			continue
		}
		for _, k := range g.rowIdx[i] {
			inRow[k] = true
		}
	}
	for k := 0; k < p.NumVars; k++ {
		if live[k] && !inRow[k] {
			g.ubFixed = append(g.ubFixed, k)
		}
	}
	return g, nil
}

// buildCoarse groups the eligible rows into connected components with an
// array-based union-find and caches each component's localized LP.
func (g *GridSolver) buildCoarse(live []bool) {
	p := g.p
	parent := make([]int, p.NumVars)
	for k := range parent {
		parent[k] = -1 // not in any eligible row
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range g.rowIdx {
		if !g.rowLive[i] {
			continue
		}
		first := -1
		for _, k := range g.rowIdx[i] {
			if parent[k] < 0 {
				parent[k] = k
			}
			if first < 0 {
				first = k
			} else if ra, rb := find(first), find(k); ra != rb {
				parent[ra] = rb
			}
		}
	}
	compAt := make(map[int]int)
	for k := 0; k < p.NumVars; k++ {
		if parent[k] < 0 {
			continue
		}
		r := find(k)
		ci, ok := compAt[r]
		if !ok {
			ci = len(g.coarse)
			compAt[r] = ci
			g.coarse = append(g.coarse, gridComp{minSum: math.Inf(1)})
		}
		g.coarse[ci].vars = append(g.coarse[ci].vars, k) // ascending: k ascends
	}
	for i := range g.rowIdx {
		if !g.rowLive[i] {
			continue
		}
		ci := compAt[find(g.rowIdx[i][0])]
		g.coarse[ci].rows = append(g.coarse[ci].rows, i) // ascending: i ascends
		if g.tauRow[i] {
			if s := g.rowSum[i]; s < g.coarse[ci].minSum {
				g.coarse[ci].minSum = s
			}
			if s := g.rowSum[i]; s > g.coarse[ci].maxSum {
				g.coarse[ci].maxSum = s
			}
		} else {
			// An always-live fixed row keeps the component alive at every τ.
			g.coarse[ci].maxSum = math.Inf(1)
		}
	}
	// Cache each component's localized LP, matching buildLocal's layout.
	local := make([]int, p.NumVars)
	for ci := range g.coarse {
		comp := &g.coarse[ci]
		n := len(comp.vars)
		comp.c = make([]float64, n)
		comp.ub = make([]float64, n)
		for j, k := range comp.vars {
			local[k] = j
			comp.c[j] = p.C[k]
			comp.ub[j] = p.UB[k]
		}
		comp.lrows = make([]Row, len(comp.rows))
		comp.base = make([]float64, len(comp.rows))
		for i, ri := range comp.rows {
			idx := make([]int, len(g.rowIdx[ri]))
			for j, k := range g.rowIdx[ri] {
				idx[j] = local[k]
			}
			comp.lrows[i] = Row{Idx: idx, Coef: g.rowCf[ri]}
			comp.base[i] = p.Rows[ri].B
		}
	}
}

// validTau rejects capacities the packing contract does not allow.
func validTau(tau float64) error {
	if tau < 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return fmt.Errorf("lp: invalid grid capacity τ=%v (must be finite, ≥ 0)", tau)
	}
	return nil
}

// SolveTau solves the LP with τ substituted into the τ-rows. The result is
// bitwise identical to Solve on the materialized problem (same presolve,
// same components, same pivots). Safe for concurrent use.
func (g *GridSolver) SolveTau(tau float64, opt Options) (*Solution, error) {
	// Same failpoint as Solve: every exact-solve entry path is injectable,
	// so chaos tests hit races regardless of which pipeline they route
	// through. One atomic load when unarmed.
	if err := fault.Check("lp.solve"); err != nil {
		return nil, err
	}
	if err := validTau(tau); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	return g.solveTauWS(tau, opt, ws)
}

// SolveSchedule solves the LP at every τ of the schedule on one workspace;
// each entry is bitwise identical to SolveTau at that τ. Solutions are
// returned in the schedule's order.
func (g *GridSolver) SolveSchedule(taus []float64, opt Options) ([]*Solution, error) {
	for _, tau := range taus {
		if err := validTau(tau); err != nil {
			return nil, err
		}
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	out := make([]*Solution, len(taus))
	for i, tau := range taus {
		if err := fault.Check("lp.solve"); err != nil {
			return nil, err
		}
		sol, err := g.solveTauWS(tau, opt, ws)
		if err != nil {
			return nil, err
		}
		out[i] = sol
	}
	return out, nil
}

// solveTauWS is the per-τ engine.
func (g *GridSolver) solveTauWS(tau float64, opt Options, ws *workspace) (*Solution, error) {
	p := g.p
	sol := &Solution{
		Status: Optimal,
		X:      make([]float64, p.NumVars),
		Y:      make([]float64, len(p.Rows)),
	}
	for _, k := range g.ubFixed {
		sol.X[k] = p.UB[k]
	}

	for ci := range g.coarse {
		comp := &g.coarse[ci]
		if tau >= comp.maxSum {
			// Every row redundant: the whole block sits at its upper bounds.
			sol.RedundantSkips++
			for _, k := range comp.vars {
				sol.X[k] = p.UB[k]
			}
			continue
		}
		if tau < comp.minSum {
			// Every row live: the cached block is the exact per-τ component.
			if err := g.solveBlock(comp, comp.vars, nil, tau, opt, ws, sol); err != nil {
				return nil, err
			}
			continue
		}
		if err := g.splitAndSolve(comp, tau, opt, ws, sol); err != nil {
			return nil, err
		}
	}
	sol.Objective = p.Value(sol.X)
	return sol, nil
}

// solveBlock solves one per-τ component. rowIDs lists the block's global row
// ids (nil means all of comp.rows, reusing the cached localization); vars
// lists the block's global variable ids, ascending.
func (g *GridSolver) solveBlock(comp *gridComp, vars []int, rowIDs []int, tau float64, opt Options, ws *workspace, sol *Solution) error {
	var (
		n, m  int
		c, ub []float64
		rows  []Row
	)
	if rowIDs == nil {
		n, m = len(comp.vars), len(comp.rows)
		c, ub = comp.c, comp.ub
		rows = growRows(&ws.compRow, m)
		for i := range comp.lrows {
			rows[i] = comp.lrows[i]
			if g.tauRow[comp.rows[i]] {
				rows[i].B = tau
			} else {
				rows[i].B = comp.base[i]
			}
		}
		rowIDs = comp.rows
	} else {
		// Re-localize the sub-block from the global structure, matching what
		// Solve's solveComponent would build for this component.
		n, m, c, ub, rows = buildLocalGrid(g, component{vars: vars, rows: rowIDs}, tau, ws)
	}

	var cs *compSolution
	var err error
	if m == 1 {
		x, y := knapsackWS(c, ub, rows[0], ws)
		yOut := growF(&ws.outY, 1)
		yOut[0] = y
		cs = &compSolution{status: Optimal, x: x, y: yOut}
	} else {
		cs, err = simplexSolveWS(n, m, c, ub, rows, opt, ws)
	}
	if err != nil {
		return err
	}
	if cs.status != Optimal {
		sol.Status = cs.status
	}
	sol.Iters += cs.iters
	sol.Pivots += cs.pivots
	sol.Components++
	for j, k := range vars {
		sol.X[k] = cs.x[j]
	}
	for i, ri := range rowIDs {
		sol.Y[ri] = cs.y[i]
	}
	return nil
}

// buildLocalGrid localizes a sub-component against the grid's merged rows,
// substituting τ into the τ-rows.
func buildLocalGrid(g *GridSolver, comp component, tau float64, ws *workspace) (n, m int, c, ub []float64, rows []Row) {
	p := g.p
	n, m = len(comp.vars), len(comp.rows)
	local := growI(&ws.local, p.NumVars)
	c = growF(&ws.compC, n)
	ub = growF(&ws.compUB, n)
	for j, k := range comp.vars {
		local[k] = j
		c[j] = p.C[k]
		ub[j] = p.UB[k]
	}
	nnz := 0
	for _, ri := range comp.rows {
		nnz += len(g.rowIdx[ri])
	}
	idxBack := growI(&ws.compIdx, nnz)
	cfBack := growF(&ws.compCf, nnz)
	rows = growRows(&ws.compRow, m)
	off := 0
	for i, ri := range comp.rows {
		src := g.rowIdx[ri]
		idx := idxBack[off : off+len(src)]
		cf := cfBack[off : off+len(src)]
		off += len(src)
		for j, k := range src {
			idx[j] = local[k]
		}
		copy(cf, g.rowCf[ri])
		b := p.Rows[ri].B
		if g.tauRow[ri] {
			b = tau
		}
		rows[i] = Row{Idx: idx, Coef: cf, B: b}
	}
	return n, m, c, ub, rows
}

// splitAndSolve handles the mixed regime: some of the component's τ-rows are
// redundant at this τ, so the block splits into smaller live components and
// freed variables fix at their upper bounds — exactly the refinement Solve's
// presolve + decomposition would compute from scratch.
func (g *GridSolver) splitAndSolve(comp *gridComp, tau float64, opt Options, ws *workspace, sol *Solution) error {
	p := g.p
	nv := len(comp.vars)
	local := growI(&ws.local, p.NumVars)
	for j, k := range comp.vars {
		local[k] = j
	}
	parent := growI(&ws.parent, nv)
	for j := range parent {
		parent[j] = -1 // not in any live row
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	liveRows := ws.liveRows[:0]
	for _, ri := range comp.rows {
		if g.tauRow[ri] && g.rowSum[ri] <= tau {
			sol.RedundantSkips++
			continue // redundant at this (and every larger) τ
		}
		liveRows = append(liveRows, ri)
		first := -1
		for _, k := range g.rowIdx[ri] {
			j := local[k]
			if parent[j] < 0 {
				parent[j] = j
			}
			if first < 0 {
				first = j
			} else if ra, rb := find(first), find(j); ra != rb {
				parent[ra] = rb
			}
		}
	}
	ws.liveRows = liveRows

	// Group variables by root. Roots get block ids first (a member may precede
	// its root in index order), then members inherit; ascending j keeps each
	// block's vars sorted, matching Solve. Freed variables (in no live row)
	// fix at their upper bound.
	compOf := growI(&ws.compOf, nv)
	nBlocks, nLive := 0, 0
	for j := 0; j < nv; j++ {
		if parent[j] < 0 {
			compOf[j] = -1
			sol.X[comp.vars[j]] = p.UB[comp.vars[j]]
			continue
		}
		nLive++
		if find(j) == j {
			compOf[j] = nBlocks
			nBlocks++
		}
	}
	if nBlocks == 0 {
		return nil
	}
	for j := 0; j < nv; j++ {
		if parent[j] >= 0 {
			compOf[j] = compOf[find(j)]
		}
	}

	// Bucket variables and rows by block (counting sort keeps both ascending),
	// before any solve touches the shared ws.local scratch.
	blkPtr := growI(&ws.blkPtr, nBlocks+1)
	for i := range blkPtr {
		blkPtr[i] = 0
	}
	for j := 0; j < nv; j++ {
		if compOf[j] >= 0 {
			blkPtr[compOf[j]+1]++
		}
	}
	for b := 0; b < nBlocks; b++ {
		blkPtr[b+1] += blkPtr[b]
	}
	blkVars := growI(&ws.blkVars, nLive)
	blkCur := growI(&ws.blkCur, nBlocks)
	copy(blkCur, blkPtr[:nBlocks])
	for j := 0; j < nv; j++ {
		if b := compOf[j]; b >= 0 {
			blkVars[blkCur[b]] = comp.vars[j]
			blkCur[b]++
		}
	}
	blkRowPtr := growI(&ws.blkRowPtr, nBlocks+1)
	for i := range blkRowPtr {
		blkRowPtr[i] = 0
	}
	for _, ri := range liveRows {
		blkRowPtr[compOf[local[g.rowIdx[ri][0]]]+1]++
	}
	for b := 0; b < nBlocks; b++ {
		blkRowPtr[b+1] += blkRowPtr[b]
	}
	blkRows := growI(&ws.blkRows, len(liveRows))
	copy(blkCur, blkRowPtr[:nBlocks])
	for _, ri := range liveRows {
		b := compOf[local[g.rowIdx[ri][0]]]
		blkRows[blkCur[b]] = ri
		blkCur[b]++
	}

	for blk := 0; blk < nBlocks; blk++ {
		vars := blkVars[blkPtr[blk]:blkPtr[blk+1]]
		rowIDs := blkRows[blkRowPtr[blk]:blkRowPtr[blk+1]]
		if err := g.solveBlock(comp, vars, rowIDs, tau, opt, ws, sol); err != nil {
			return err
		}
	}
	return nil
}
