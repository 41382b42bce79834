package lp

import (
	"sort"

	"r2t/internal/fault"
)

// Options tunes Solve.
type Options struct {
	// MaxIters bounds simplex iterations per component; 0 means automatic
	// (generous, scaled to the component size).
	MaxIters int

	// Ablation switches (all default off = optimizations enabled). They
	// isolate the design choices DESIGN.md calls out and must not change
	// results, only speed (TestAblationsPreserveOptimum).
	NoPresolve  bool // keep redundant rows and orphan variables
	NoDecompose bool // solve everything as one component
	NoCrash     bool // start the simplex from x = 0 instead of a greedy point
}

// Solve computes the exact optimum of a packing LP. The pipeline is
// presolve → connected-component decomposition → per-component solve
// (greedy fractional knapsack for single-row components, bounded-variable
// revised simplex otherwise). Scratch buffers come from a pooled workspace,
// so concurrent callers reuse allocations. For solving the same structure at
// many capacities (R2T's τ grid), use GridSolver, which additionally
// amortizes the presolve and decomposition across solves.
func Solve(p *Problem, opt Options) (*Solution, error) {
	// Failpoint for crash-safety tests: lets the chaos suite deliver solver
	// errors and panics at exact race indices. One atomic load when unarmed.
	if err := fault.Check("lp.solve"); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	w := newWork(p)
	w.presolve(opt.NoPresolve)

	sol := &Solution{
		Status: Optimal,
		X:      make([]float64, p.NumVars),
		Y:      make([]float64, len(p.Rows)),
	}
	for k, v := range w.fixedX {
		sol.X[k] = v
	}

	for _, comp := range w.components(opt.NoDecompose) {
		cs, err := solveComponent(w, comp, opt, ws)
		if err != nil {
			return nil, err
		}
		if cs.status != Optimal {
			sol.Status = cs.status
		}
		sol.Iters += cs.iters
		sol.Pivots += cs.pivots
		sol.Components++
		for j, k := range comp.vars {
			sol.X[k] = cs.x[j]
		}
		for i, r := range comp.rows {
			sol.Y[r] = cs.y[i]
		}
	}
	sol.Objective = p.Value(sol.X)
	return sol, nil
}

// work holds the presolved view of a problem: live rows with reduced
// capacities, live variables with (possibly tightened) bounds, and values
// already fixed.
type work struct {
	p      *Problem
	ub     []float64 // working upper bounds
	liveV  []bool
	liveR  []bool
	rowB   []float64
	rowIdx [][]int // live members per row (filtered of fixed-at-zero vars)
	rowCf  [][]float64
	fixedX map[int]float64
}

func newWork(p *Problem) *work {
	w := &work{
		p:      p,
		ub:     append([]float64(nil), p.UB...),
		liveV:  make([]bool, p.NumVars),
		liveR:  make([]bool, len(p.Rows)),
		rowB:   make([]float64, len(p.Rows)),
		rowIdx: make([][]int, len(p.Rows)),
		rowCf:  make([][]float64, len(p.Rows)),
		fixedX: make(map[int]float64),
	}
	for k := 0; k < p.NumVars; k++ {
		w.liveV[k] = true
	}
	for i, r := range p.Rows {
		w.liveR[i] = true
		w.rowB[i] = r.B
		w.rowIdx[i], w.rowCf[i] = mergeDuplicates(r.Idx, r.Coef)
	}
	return w
}

// mergeDuplicates canonicalizes a row: a variable listed twice contributes
// the sum of its coefficients once. Downstream code (the simplex column
// store, the knapsack fast path) assumes each variable appears at most once
// per row.
func mergeDuplicates(idx []int, coef []float64) ([]int, []float64) {
	seen := make(map[int]int, len(idx))
	outIdx := make([]int, 0, len(idx))
	outCf := make([]float64, 0, len(coef))
	for j, k := range idx {
		if at, dup := seen[k]; dup {
			outCf[at] += coef[j]
			continue
		}
		seen[k] = len(outIdx)
		outIdx = append(outIdx, k)
		outCf = append(outCf, coef[j])
	}
	return outIdx, outCf
}

// presolve applies:
//   - fix variables with c ≤ 0 at 0 (valid for packing LPs: they cannot help
//     the objective and only consume capacity);
//   - drop redundant rows (Σ coef·ub ≤ b) — slack at every feasible point,
//     so y = 0 is a valid dual for them;
//   - fix variables in no live row at their upper bound (c > 0 there).
//
// These reductions preserve exact global primal and dual solutions, which the
// optimality certificate (strong duality) in the tests relies on.
//
// With skipRedundant (the NoPresolve ablation), redundant rows are kept; the
// c ≤ 0 and no-row fixings still run because later stages assume them.
func (w *work) presolve(skipRedundant bool) {
	// c ≤ 0 → 0, once.
	for k := 0; k < w.p.NumVars; k++ {
		if w.p.C[k] <= 0 {
			w.liveV[k] = false
			w.fixedX[k] = 0
		}
	}
	for i := range w.rowIdx {
		w.filterRow(i)
	}

	if !skipRedundant {
		for i := range w.rowIdx {
			if !w.liveR[i] {
				continue
			}
			idx, cf := w.rowIdx[i], w.rowCf[i]
			sum := 0.0
			for j, k := range idx {
				sum += cf[j] * w.ub[k]
			}
			if sum <= w.rowB[i] {
				w.liveR[i] = false
			}
		}
	}

	// Variables in no live row: fix at ub (their c > 0 by the first step).
	inRow := make([]bool, w.p.NumVars)
	for i := range w.rowIdx {
		if !w.liveR[i] {
			continue
		}
		for _, k := range w.rowIdx[i] {
			inRow[k] = true
		}
	}
	for k := 0; k < w.p.NumVars; k++ {
		if w.liveV[k] && !inRow[k] {
			w.liveV[k] = false
			w.fixedX[k] = w.ub[k]
		}
	}
}

// filterRow removes fixed variables from row i, charging fixed-at-ub values
// against the row capacity (fixed values here are always 0, since ub-fixing
// happens after all row filtering, but keep it general).
func (w *work) filterRow(i int) {
	idx, cf := w.rowIdx[i], w.rowCf[i]
	nIdx, nCf := idx[:0], cf[:0]
	for j, k := range idx {
		if w.liveV[k] {
			nIdx = append(nIdx, k)
			nCf = append(nCf, cf[j])
			continue
		}
		w.rowB[i] -= cf[j] * w.fixedX[k]
	}
	w.rowIdx[i], w.rowCf[i] = nIdx, nCf
	if w.rowB[i] < 0 {
		w.rowB[i] = 0
	}
	if len(nIdx) == 0 {
		w.liveR[i] = false
	}
}

// component is an independent block of the presolved problem.
type component struct {
	vars []int // original variable ids
	rows []int // original row ids
}

// components groups live rows/vars into connected components of the
// bipartite row–variable incidence graph. With noDecompose everything lands
// in one block (the ablation mode).
func (w *work) components(noDecompose bool) []component {
	if noDecompose {
		var comp component
		inComp := make(map[int]bool)
		for i := range w.rowIdx {
			if !w.liveR[i] {
				continue
			}
			comp.rows = append(comp.rows, i)
			for _, k := range w.rowIdx[i] {
				if !inComp[k] {
					inComp[k] = true
					comp.vars = append(comp.vars, k)
				}
			}
		}
		if len(comp.rows) == 0 {
			return nil
		}
		sort.Ints(comp.vars)
		return []component{comp}
	}
	parent := make(map[int]int) // over variable ids
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := range w.rowIdx {
		if !w.liveR[i] {
			continue
		}
		var first = -1
		for _, k := range w.rowIdx[i] {
			if _, ok := parent[k]; !ok {
				parent[k] = k
			}
			if first < 0 {
				first = k
			} else {
				union(first, k)
			}
		}
	}
	group := make(map[int]*component)
	var roots []int
	for k := range parent {
		r := find(k)
		g, ok := group[r]
		if !ok {
			g = &component{}
			group[r] = g
			roots = append(roots, r)
		}
		g.vars = append(g.vars, k)
	}
	for i := range w.rowIdx {
		if !w.liveR[i] {
			continue
		}
		r := find(w.rowIdx[i][0])
		group[r].rows = append(group[r].rows, i)
	}
	sort.Ints(roots)
	out := make([]component, 0, len(roots))
	for _, r := range roots {
		g := group[r]
		sort.Ints(g.vars)
		sort.Ints(g.rows)
		out = append(out, *g)
	}
	return out
}

// compSolution is a solved component in local indexing.
type compSolution struct {
	status Status
	x      []float64 // per comp.vars
	y      []float64 // per comp.rows
	iters  int
	pivots int
}

func solveComponent(w *work, comp component, opt Options, ws *workspace) (*compSolution, error) {
	n, m, c, ub, rows := buildLocal(w.p.C, w.ub, w.rowIdx, w.rowCf, w.rowB, comp, ws)
	if m == 1 {
		x, y := knapsackWS(c, ub, rows[0], ws)
		yOut := growF(&ws.outY, 1)
		yOut[0] = y
		return &compSolution{status: Optimal, x: x, y: yOut}, nil
	}
	return simplexSolveWS(n, m, c, ub, rows, opt, ws)
}

// buildLocal materializes one component's LP in local indexing, with every
// slice drawn from workspace buffers (valid until the workspace is reused).
// rowB supplies each original row's capacity, which is the one τ-dependent
// piece of the structure.
func buildLocal(C, UB []float64, rowIdx [][]int, rowCf [][]float64, rowB []float64, comp component, ws *workspace) (n, m int, c, ub []float64, rows []Row) {
	n, m = len(comp.vars), len(comp.rows)
	// local is indexed by global variable id; every entry a row reads is
	// written first, because each row's variables belong to the component.
	local := growI(&ws.local, len(C))
	c = growF(&ws.compC, n)
	ub = growF(&ws.compUB, n)
	for j, k := range comp.vars {
		local[k] = j
		c[j] = C[k]
		ub[j] = UB[k]
	}
	nnz := 0
	for _, ri := range comp.rows {
		nnz += len(rowIdx[ri])
	}
	idxBack := growI(&ws.compIdx, nnz)
	cfBack := growF(&ws.compCf, nnz)
	rows = growRows(&ws.compRow, m)
	off := 0
	for i, ri := range comp.rows {
		src := rowIdx[ri]
		idx := idxBack[off : off+len(src)]
		cf := cfBack[off : off+len(src)]
		off += len(src)
		for j, k := range src {
			idx[j] = local[k]
		}
		copy(cf, rowCf[ri])
		rows[i] = Row{Idx: idx, Coef: cf, B: rowB[ri]}
	}
	return n, m, c, ub, rows
}

// knapItem is one entry of the greedy knapsack ordering.
type knapItem struct {
	k     int
	a     float64
	ratio float64
}

// knapsack solves the single-constraint LP with fresh result slices; see
// knapsackWS for the semantics. It exists for direct use in tests.
func knapsack(c, ub []float64, row Row) ([]float64, float64) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	x, y := knapsackWS(c, ub, row, ws)
	return append([]float64(nil), x...), y
}

// knapsackWS solves the single-constraint LP exactly by the greedy ratio rule:
// maximize c·x s.t. Σ a_k x_k ≤ b, 0 ≤ x ≤ ub. Returns the optimum (aliasing
// a workspace buffer) and the exact dual of the capacity row.
func knapsackWS(c, ub []float64, row Row, ws *workspace) (x []float64, y float64) {
	x = growF(&ws.outX, len(c))
	for k := range x {
		x[k] = 0
	}
	items := ws.items[:0]
	for j, k := range row.Idx {
		a := row.Coef[j]
		if a <= 0 {
			// Zero coefficient: the variable is unconstrained here.
			x[k] = ub[k]
			continue
		}
		items = append(items, knapItem{k: k, a: a, ratio: c[k] / a})
	}
	ws.items = items
	sort.Slice(items, func(i, j int) bool {
		if items[i].ratio != items[j].ratio {
			return items[i].ratio > items[j].ratio
		}
		return items[i].k < items[j].k
	})
	cap := row.B
	for _, it := range items {
		if cap <= 0 {
			break
		}
		take := ub[it.k]
		need := take * it.a
		if need > cap {
			take = cap / it.a
			need = cap
		}
		x[it.k] = take
		cap -= need
		if take < ub[it.k] {
			// Capacity exhausted on this item: its ratio is the row's dual.
			y = it.ratio
			return x, y
		}
	}
	// All items fit (or trailing items have cap exactly 0): capacity slack or
	// exactly tight with everything at ub → y = 0 is dual feasible only if no
	// leftover item has positive reduced cost; if the capacity is exactly
	// exhausted, use the next item's ratio.
	if cap <= 0 {
		for _, it := range items {
			if x[it.k] == 0 {
				y = it.ratio
				break
			}
		}
	}
	return x, y
}
