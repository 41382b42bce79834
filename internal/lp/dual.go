package lp

import (
	"math"
	"sort"
)

// DualBounder produces a nonincreasing sequence of valid upper bounds on a
// packing LP's optimum, mirroring how a dual LP solver approaches the optimum
// from above (Section 9, "early stop"). Any y ≥ 0 certifies the Lagrangian
// bound  UB(y) = Σ_i y_i b_i + Σ_k max(0, c_k − Σ_i y_i A_ik)·u_k ≥ OPT,
// so every bound returned is safe for pruning races; exact values still come
// from the simplex.
//
// Before any Tighten call the bound is the trivial y = 0 bound. The first
// Tighten step minimizes UB over uniform multipliers y ≡ λ exactly (a 1-D
// convex piecewise-linear problem solved over its breakpoints); later steps
// are projected subgradient steps from there.
//
// Everything τ-independent lives in a shared, read-only dualSkeleton; a
// bounder owns only its capacities, multipliers and step scratch, which are
// allocated on the first subgradient step and reused by every later one.
type DualBounder struct {
	sk   *dualSkeleton
	tau  float64 // capacity of the skeleton's τ-rows
	best float64
	t    int
	init bool
	lam  float64 // the uniform step's λ, the subgradient steps' start

	// per-bounder state, nil until the first subgradient step
	b, y, g, red []float64
}

// dualSkeleton is the τ-independent half of a bounder, built once per
// NewDualBounder call or once per GridSolver and shared by every bounder
// built from it: the constraint matrix in CSR form over the rows in their
// original order (duplicates kept, as the bound's arithmetic sees them), the
// y = 0 bound, and the uniform step's sorted breakpoint sweep.
type dualSkeleton struct {
	c, ub  []float64
	rowPtr []int32   // row i is col[rowPtr[i]:rowPtr[i+1]]
	col    []int32   // variable ids
	coef   []float64 // parallel to col
	b      []float64 // row capacities (a τ-row's entry is a placeholder)
	tauRow []bool    // per row: capacity is the bounder's τ (nil: none)
	zero   float64   // the y = 0 bound Σ_k max(c_k,0)·u_k

	// The uniform sweep: UB(λ·1) = λ·Σb + base + cu − λ·au over the active
	// set {k : c_k/a_k > λ}. allCU/allAU are the λ = 0 sums; at candidate
	// lam[i] the active set's sums are cu[i]/au[i].
	base, allCU, allAU float64
	lam, cu, au        []float64
}

// newDualSkeleton builds the shared state over p's rows; tauRow (nil or one
// flag per row) marks rows whose capacity each bounder replaces by its τ.
// Every sum keeps one fixed accumulation order, which
// TestDualBoundSequencePinned pins bit for bit: reordering one moves bounds.
func newDualSkeleton(p *Problem, tauRow []bool) *dualSkeleton {
	n, m := p.NumVars, len(p.Rows)
	nnz := 0
	for _, r := range p.Rows {
		nnz += len(r.Idx)
	}
	if n > math.MaxInt32 || nnz > math.MaxInt32 {
		panic("lp: problem too large for the dual bounder's int32 indexing")
	}
	sk := &dualSkeleton{
		c: p.C[:n], ub: p.UB[:n], tauRow: tauRow,
		rowPtr: make([]int32, m+1),
		col:    make([]int32, 0, nnz),
		coef:   make([]float64, 0, nnz),
		b:      make([]float64, m),
	}
	colA := make([]float64, n) // per-variable column sums Σ_i A_ik
	for i, r := range p.Rows {
		for j, k := range r.Idx {
			sk.col = append(sk.col, int32(k))
			colA[k] += r.Coef[j]
		}
		sk.coef = append(sk.coef, r.Coef...)
		sk.rowPtr[i+1] = int32(len(sk.col))
		sk.b[i] = r.B
	}
	for k := 0; k < n; k++ {
		if p.C[k] > 0 {
			sk.zero += p.C[k] * p.UB[k]
		}
	}

	// Breakpoints where a variable's reduced cost c_k − λ·a_k crosses zero.
	type bp struct{ lam, cu, au float64 } // at λ < lam the var is active
	var bps []bp
	for k := 0; k < n; k++ {
		if p.C[k] <= 0 || p.UB[k] <= 0 {
			continue
		}
		if colA[k] == 0 {
			// never deactivated
			sk.base += p.C[k] * p.UB[k]
			continue
		}
		bps = append(bps, bp{lam: p.C[k] / colA[k], cu: p.C[k] * p.UB[k], au: colA[k] * p.UB[k]})
	}
	sort.Slice(bps, func(i, j int) bool { return bps[i].lam < bps[j].lam })
	var cu, au float64
	for _, b := range bps {
		cu += b.cu
		au += b.au
	}
	sk.allCU, sk.allAU = cu, au
	// Candidates: each breakpoint value, with every var whose breakpoint is
	// ≤ the candidate deactivated.
	for i := 0; i < len(bps); {
		lam := bps[i].lam
		for i < len(bps) && bps[i].lam <= lam {
			cu -= bps[i].cu
			au -= bps[i].au
			i++
		}
		sk.lam = append(sk.lam, lam)
		sk.cu = append(sk.cu, cu)
		sk.au = append(sk.au, au)
	}
	return sk
}

// NewDualBounder prepares a bounder; the initial bound is the trivial y = 0
// bound Σ_k max(c_k,0)·u_k.
func NewDualBounder(p *Problem) *DualBounder {
	sk := newDualSkeleton(p, nil)
	return &DualBounder{sk: sk, best: sk.zero}
}

// Bounder returns a DualBounder for the grid's problem at capacity τ. The
// skeleton is built on first use and shared by every later bounder, so a
// bounder costs one small allocation until it takes a subgradient step; the
// bound sequence is identical to NewDualBounder on the materialized problem.
// Safe for concurrent use.
func (g *GridSolver) Bounder(tau float64) *DualBounder {
	g.dualOnce.Do(func() { g.dual = newDualSkeleton(g.p, g.tauRow) })
	return &DualBounder{sk: g.dual, tau: tau, best: g.dual.zero}
}

// capacity is row i's capacity b_i for this bounder.
func (d *DualBounder) capacity(i int) float64 {
	if d.sk.tauRow != nil && d.sk.tauRow[i] {
		return d.tau
	}
	return d.sk.b[i]
}

// Bound returns the best (smallest) upper bound proven so far.
func (d *DualBounder) Bound() float64 { return d.best }

// Tighten improves the bound with up to iters refinement steps and returns
// the new best bound. The sequence of returned values is nonincreasing.
func (d *DualBounder) Tighten(iters int) float64 {
	if !d.init {
		d.init = true
		d.uniform()
		iters--
	}
	if iters > 0 && d.y == nil {
		d.grow()
	}
	for ; iters > 0; iters-- {
		d.t++
		d.subgradientStep()
	}
	return d.best
}

// grow allocates the subgradient state, starting from the uniform λ.
func (d *DualBounder) grow() {
	n, m := len(d.sk.c), len(d.sk.b)
	f := make([]float64, 3*m+n)
	d.b, d.y, d.g, d.red = f[:m:m], f[m:2*m:2*m], f[2*m:3*m:3*m], f[3*m:]
	for i := range d.b {
		d.b[i] = d.capacity(i)
		d.y[i] = d.lam
	}
}

// uniform minimizes UB(λ·1) exactly over λ ≥ 0 by evaluating the skeleton's
// candidate breakpoints.
func (d *DualBounder) uniform() {
	sk := d.sk
	sumB := 0.0
	for i := range sk.b {
		sumB += d.capacity(i)
	}
	evalAt := func(lam, activeCU, activeAU float64) float64 {
		return lam*sumB + sk.base + activeCU - lam*activeAU
	}
	bestUB := evalAt(0, sk.allCU, sk.allAU) // λ=0: everything active
	bestLam := 0.0
	for i, lam := range sk.lam {
		if ub := evalAt(lam, sk.cu[i], sk.au[i]); ub < bestUB {
			bestUB = ub
			bestLam = lam
		}
	}
	d.lam = bestLam
	if bestUB < d.best {
		d.best = bestUB
	}
}

// subgradientStep performs one projected subgradient step on UB(y) and
// records the bound if it improved. It allocates nothing.
func (d *DualBounder) subgradientStep() {
	sk := d.sk
	red, y, g := d.red, d.y, d.g
	// Reduced costs under current y.
	copy(red, sk.c)
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		for p := sk.rowPtr[i]; p < sk.rowPtr[i+1]; p++ {
			red[sk.col[p]] -= yi * sk.coef[p]
		}
	}
	// Current bound and subgradient g_i = b_i − Σ_{k active} A_ik u_k. Once
	// a reduced cost is summed, red[k] is reused as u_k for an active k and
	// 0 otherwise, so the gather below needs no branch: subtracting 0 (or a
	// finite coefficient times 0) leaves every bit of g_i as skipping the
	// variable would.
	ub := 0.0
	for k, rk := range red {
		if rk > 0 {
			ub += rk * sk.ub[k]
			red[k] = sk.ub[k]
		} else {
			red[k] = 0
		}
	}
	gnorm := 0.0
	for i, bi := range d.b {
		ub += y[i] * bi
		gi := bi
		for p := sk.rowPtr[i]; p < sk.rowPtr[i+1]; p++ {
			gi -= sk.coef[p] * red[sk.col[p]]
		}
		g[i] = gi
		gnorm += gi * gi
	}
	if ub < d.best {
		d.best = ub
	}
	if gnorm == 0 {
		return
	}
	step := (2.0 / math.Sqrt(float64(d.t)+4)) * (d.best / (gnorm + 1))
	for i := range y {
		y[i] -= step * g[i]
		if y[i] < 0 {
			y[i] = 0
		}
	}
}
