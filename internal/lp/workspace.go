package lp

import "sync"

// workspace holds the reusable scratch buffers of one solve: the simplex's
// column store, basis state and dense inverse, the component-extraction
// arrays, and the grid solver's per-τ liveness/union-find scratch. Solve and
// GridSolver check one out of a sync.Pool per call, so concurrent callers
// (r2td's concurrent requests) each reuse their own buffers instead of
// thrashing the allocator.
type workspace struct {
	// simplex: sparse column store (CSR by column) and basis state.
	colPtr []int32
	colCur []int32
	colRow []int32
	colVal []float64
	b      []float64
	basis  []int
	pos    []int
	atUB   []bool
	xB     []float64
	y      []float64
	wcol   []float64
	cands  []crashCand

	// dense basis inverse and refactorization scratch.
	binv     [][]float64
	binvBack []float64
	mat      [][]float64
	matBack  []float64
	rhs      []float64

	// component extraction (shared by Solve and GridSolver).
	local   []int // global variable id → component-local index
	compC   []float64
	compUB  []float64
	compIdx []int
	compCf  []float64
	compRow []Row

	// outputs of one component solve, valid until the next solve reuses them.
	outX []float64
	outY []float64

	// knapsack scratch.
	items []knapItem

	// grid solver per-τ scratch: union-find state, live-row list, and the
	// counting-sort buffers that bucket vars/rows by block.
	parent    []int
	liveRows  []int
	compOf    []int
	blkPtr    []int
	blkCur    []int
	blkVars   []int
	blkRowPtr []int
	blkRows   []int
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

func getWorkspace() *workspace  { return wsPool.Get().(*workspace) }
func putWorkspace(w *workspace) { wsPool.Put(w) }

// The grow helpers resize a pooled buffer to n elements without zeroing;
// callers must fully initialize what they read.

func growF(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

func growI(p *[]int, n int) []int {
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return *p
}

func growI32(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return *p
}

func growB(p *[]bool, n int) []bool {
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return *p
}

func growRows(p *[]Row, n int) []Row {
	if cap(*p) < n {
		*p = make([]Row, n)
	}
	*p = (*p)[:n]
	return *p
}

// matrix returns an m×m dense matrix of zeros backed by the pooled array.
func (w *workspace) matrix(m int) [][]float64 {
	if cap(w.binvBack) < m*m {
		w.binvBack = make([]float64, m*m)
	}
	back := w.binvBack[:m*m]
	for i := range back {
		back[i] = 0
	}
	if cap(w.binv) < m {
		w.binv = make([][]float64, m)
	}
	w.binv = w.binv[:m]
	for r := 0; r < m; r++ {
		w.binv[r] = back[r*m : (r+1)*m]
	}
	return w.binv
}

// wideMatrix returns an m×2m zeroed matrix for Gauss–Jordan refactorization.
func (w *workspace) wideMatrix(m int) [][]float64 {
	if cap(w.matBack) < 2*m*m {
		w.matBack = make([]float64, 2*m*m)
	}
	back := w.matBack[:2*m*m]
	for i := range back {
		back[i] = 0
	}
	if cap(w.mat) < m {
		w.mat = make([][]float64, m)
	}
	w.mat = w.mat[:m]
	for r := 0; r < m; r++ {
		w.mat[r] = back[r*2*m : (r+1)*2*m]
	}
	return w.mat
}
