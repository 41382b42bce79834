package lp

import (
	"errors"
	"math"
	"sort"
)

// crashCand is one candidate of the greedy crash ordering.
type crashCand struct {
	v       int
	density float64
}

// simplexSolve runs the bounded-variable revised simplex with a fresh
// workspace from the pool.
func simplexSolve(n, m int, c, ub []float64, rows []Row, opt Options) (*compSolution, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return simplexSolveWS(n, m, c, ub, rows, opt, ws)
}

// simplexSolveWS runs a bounded-variable revised primal simplex on one
// component: maximize c·x s.t. rows (Ax ≤ b, A ≥ 0, b ≥ 0), 0 ≤ x ≤ ub.
// The slack basis is feasible because b ≥ 0, so no phase 1 is needed.
// Variables n..n+m-1 are the slacks (lower bound 0, upper bound +∞).
// The basis inverse is kept densely and refreshed periodically to contain
// floating-point drift; Bland's rule engages after a degenerate streak to
// rule out cycling.
//
// Scratch comes from ws; the returned compSolution aliases ws buffers and is
// only valid until the next solve reuses the workspace.
func simplexSolveWS(n, m int, c, ub []float64, rows []Row, opt Options, ws *workspace) (*compSolution, error) {
	const (
		tol         = 1e-9
		degStreak   = 60  // degenerate pivots before switching to Bland
		refactEvery = 512 // pivots between basis refactorizations
	)
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 200*(n+m) + 20000
	}

	// Sparse columns of structural variables, CSR by column. Entries within a
	// column appear in ascending row order (rows are scanned in order), the
	// same order the append-based construction produced.
	nnz := 0
	for _, r := range rows {
		nnz += len(r.Idx)
	}
	colPtr := growI32(&ws.colPtr, n+1)
	for i := range colPtr {
		colPtr[i] = 0
	}
	for _, r := range rows {
		for _, k := range r.Idx {
			colPtr[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		colPtr[k+1] += colPtr[k]
	}
	colCur := growI32(&ws.colCur, n)
	copy(colCur, colPtr[:n])
	colRow := growI32(&ws.colRow, nnz)
	colVal := growF(&ws.colVal, nnz)
	b := growF(&ws.b, m)
	for i, r := range rows {
		b[i] = r.B
		for j, k := range r.Idx {
			t := colCur[k]
			colCur[k]++
			colRow[t] = int32(i)
			colVal[t] = r.Coef[j]
		}
	}

	total := n + m
	costOf := func(v int) float64 {
		if v < n {
			return c[v]
		}
		return 0
	}
	ubOf := func(v int) float64 {
		if v < n {
			return ub[v]
		}
		return math.Inf(1)
	}

	basis := growI(&ws.basis, m) // basis[r] = variable in basis slot r
	pos := growI(&ws.pos, total)
	atUB := growB(&ws.atUB, total)
	for v := range pos {
		pos[v] = -1
		atUB[v] = false
	}
	for i := 0; i < m; i++ {
		basis[i] = n + i
		pos[n+i] = i
	}
	xB := growF(&ws.xB, m)
	copy(xB, b)
	binv := ws.matrix(m)
	for r := 0; r < m; r++ {
		binv[r][r] = 1
	}

	// flipFits reports whether flipping v to its upper bound keeps every row's
	// leftover capacity nonnegative; flip applies it. Nonbasic-at-bound flips
	// keep the slack basis valid — xB is just the leftover capacity.
	flipFits := func(v int) bool {
		for t := colPtr[v]; t < colPtr[v+1]; t++ {
			if colVal[t]*ub[v] > xB[colRow[t]] {
				return false
			}
		}
		return true
	}
	flip := func(v int) {
		atUB[v] = true
		for t := colPtr[v]; t < colPtr[v+1]; t++ {
			xB[colRow[t]] -= colVal[t] * ub[v]
		}
	}

	// Greedy crash start: flip variables to their upper bound while every
	// row still has capacity, densest (cost per unit of capacity) first.
	// This starts the simplex near the optimum instead of at zero, which
	// cuts iterations dramatically on the truncation LPs.
	if !opt.NoCrash {
		cands := ws.cands[:0]
		for v := 0; v < n; v++ {
			if c[v] <= 0 || ub[v] <= 0 {
				continue
			}
			weight := 0.0
			for t := colPtr[v]; t < colPtr[v+1]; t++ {
				weight += colVal[t]
			}
			if weight == 0 {
				weight = 1e-12
			}
			cands = append(cands, crashCand{v: v, density: c[v] / weight})
		}
		ws.cands = cands
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].density != cands[j].density {
				return cands[i].density > cands[j].density
			}
			return cands[i].v < cands[j].v
		})
		for _, cd := range cands {
			if flipFits(cd.v) {
				flip(cd.v)
			}
		}
	}

	// refactor rebuilds binv and xB from the basis by Gauss–Jordan.
	refactor := func() {
		mat := ws.wideMatrix(m)
		for r := 0; r < m; r++ {
			mat[r][m+r] = 1
		}
		for slot, v := range basis {
			if v >= n {
				mat[v-n][slot] = 1
				continue
			}
			for t := colPtr[v]; t < colPtr[v+1]; t++ {
				mat[colRow[t]][slot] += colVal[t]
			}
		}
		gaussJordan(mat, m)
		for r := 0; r < m; r++ {
			copy(binv[r], mat[r][m:])
		}
		// xB = binv·(b − A_N x_N)
		rhs := growF(&ws.rhs, m)
		copy(rhs, b)
		for v := 0; v < n; v++ {
			if pos[v] >= 0 || !atUB[v] {
				continue
			}
			for t := colPtr[v]; t < colPtr[v+1]; t++ {
				rhs[colRow[t]] -= colVal[t] * ub[v]
			}
		}
		for r := 0; r < m; r++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += binv[r][i] * rhs[i]
			}
			xB[r] = s
		}
	}

	y := growF(&ws.y, m)
	wcol := growF(&ws.wcol, m)
	iters := 0
	pivots := 0
	degenerate := 0
	sinceRefactor := 0
	yStale := true // recompute duals lazily: bound flips leave y unchanged
	cursor := 0    // rotating partial-pricing cursor

	// computeY refreshes y = c_B^T · binv (O(m²)).
	computeY := func() {
		for i := 0; i < m; i++ {
			y[i] = 0
		}
		for slot, v := range basis {
			cv := costOf(v)
			if cv == 0 {
				continue
			}
			row := binv[slot]
			for i := 0; i < m; i++ {
				y[i] += cv * row[i]
			}
		}
		yStale = false
	}

	// reducedCost of a nonbasic variable under the current duals.
	reducedCost := func(v int) float64 {
		if v < n {
			d := c[v]
			for t := colPtr[v]; t < colPtr[v+1]; t++ {
				d -= y[colRow[t]] * colVal[t]
			}
			return d
		}
		return -y[v-n]
	}

	for ; iters < maxIters; iters++ {
		if yStale {
			computeY()
		}

		// Pricing. Partial (rotating-window) Dantzig by default: scan from
		// the cursor, and once a candidate is found finish the current window
		// and take the best seen. A full pass with no candidate proves
		// optimality. Bland's rule (after a degenerate streak) scans from 0
		// and takes the first eligible index, ruling out cycling.
		bland := degenerate >= degStreak
		enter, enterDir := -1, 0 // dir +1: from LB (increase); -1: from UB (decrease)
		best := tol
		if bland {
			for v := 0; v < total; v++ {
				if pos[v] >= 0 {
					continue
				}
				d := reducedCost(v)
				if !atUB[v] && d > tol {
					enter, enterDir = v, 1
					break
				}
				if atUB[v] && d < -tol {
					enter, enterDir = v, -1
					break
				}
			}
		} else {
			const window = 1024
			scanned, sinceFound := 0, -1
			for scanned < total {
				v := cursor
				cursor++
				if cursor == total {
					cursor = 0
				}
				scanned++
				if sinceFound >= 0 {
					sinceFound++
					if sinceFound > window {
						break
					}
				}
				if pos[v] >= 0 {
					continue
				}
				d := reducedCost(v)
				if !atUB[v] && d > tol {
					if d > best {
						best, enter, enterDir = d, v, 1
					}
					if sinceFound < 0 {
						sinceFound = 0
					}
				} else if atUB[v] && d < -tol {
					if -d > best {
						best, enter, enterDir = -d, v, -1
					}
					if sinceFound < 0 {
						sinceFound = 0
					}
				}
			}
		}
		if enter < 0 {
			// No candidate under the current (possibly drifted) duals. Before
			// declaring optimality, refactor and re-price exactly once; only
			// terminate if the claim survives exact duals.
			if sinceRefactor > 0 {
				sinceRefactor = 0
				refactor()
				computeY()
				continue
			}
			break // optimal, verified under freshly factorized duals
		}
		enterRC := reducedCost(enter) // saved for the O(m) dual update

		// w = binv · A_enter.
		if enter < n {
			for r := 0; r < m; r++ {
				s := 0.0
				for t := colPtr[enter]; t < colPtr[enter+1]; t++ {
					s += binv[r][colRow[t]] * colVal[t]
				}
				wcol[r] = s
			}
		} else {
			ri := enter - n
			for r := 0; r < m; r++ {
				wcol[r] = binv[r][ri]
			}
		}

		// Ratio test. With enterDir=+1 the basics move by −w·δ; with −1 by +w·δ.
		delta := ubOf(enter) // bound-flip distance
		leave := -1
		for r := 0; r < m; r++ {
			wr := wcol[r] * float64(enterDir)
			var lim float64
			switch {
			case wr > tol: // basic decreases toward 0
				lim = xB[r] / wr
			case wr < -tol: // basic increases toward its ub
				u := ubOf(basis[r])
				if math.IsInf(u, 1) {
					continue
				}
				lim = (u - xB[r]) / (-wr)
			default:
				continue
			}
			if lim < 0 {
				lim = 0
			}
			switch {
			case lim < delta-tol:
				delta, leave = lim, r
			case lim < delta+tol && (leave < 0 || basis[r] < basis[leave]):
				// Tie: prefer the smaller basis index (Bland-friendly), and
				// never let delta grow.
				if lim < delta {
					delta = lim
				}
				leave = r
			}
		}
		if math.IsInf(delta, 1) {
			// Cannot happen for valid packing LPs (objective bounded), but
			// guard against malformed input.
			return nil, errUnbounded()
		}
		if delta <= tol {
			degenerate++
		} else {
			degenerate = 0
		}

		if leave < 0 {
			// Bound flip: the entering variable crosses to its other bound.
			// The basis (hence y) is unchanged.
			step := delta * float64(enterDir)
			for r := 0; r < m; r++ {
				xB[r] -= wcol[r] * step
			}
			atUB[enter] = !atUB[enter]
			continue
		}

		// Pivot: entering takes basis slot `leave`.
		pivots++
		step := delta * float64(enterDir)
		for r := 0; r < m; r++ {
			xB[r] -= wcol[r] * step
		}
		var enterVal float64
		if enterDir > 0 {
			enterVal = delta
		} else {
			enterVal = ubOf(enter) - delta
		}
		out := basis[leave]
		// The leaving variable lands on whichever of its bounds it hit.
		outW := wcol[leave] * float64(enterDir)
		atUB[out] = outW < 0 // increased to its upper bound
		pos[out] = -1
		basis[leave] = enter
		pos[enter] = leave
		atUB[enter] = false
		xB[leave] = enterVal

		// binv update: eliminate wcol against the pivot row.
		piv := wcol[leave]
		prow := binv[leave]
		inv := 1 / piv
		for i := 0; i < m; i++ {
			prow[i] *= inv
		}
		for r := 0; r < m; r++ {
			if r == leave {
				continue
			}
			f := wcol[r]
			if f == 0 {
				continue
			}
			row := binv[r]
			for i := 0; i < m; i++ {
				row[i] -= f * prow[i]
			}
		}

		// Dual update in O(m): y' = y + d_e·(new pivot row of B⁻¹). After the
		// pivot, the entering variable's reduced cost must become 0; the
		// update achieves exactly that, and keeps all other reduced costs
		// consistent. Drift is repaired by the periodic refactor.
		if !yStale && enterRC != 0 {
			for i := 0; i < m; i++ {
				y[i] += enterRC * prow[i]
			}
		}

		sinceRefactor++
		if sinceRefactor >= refactEvery {
			sinceRefactor = 0
			refactor()
			yStale = true
		}
	}

	status := Optimal
	if iters >= maxIters {
		status = IterationLimit
	}

	// Extract the primal point into workspace-owned output buffers.
	x := growF(&ws.outX, n)
	for v := 0; v < n; v++ {
		if pos[v] < 0 {
			if atUB[v] {
				x[v] = ub[v]
			} else {
				x[v] = 0
			}
			continue
		}
		xv := xB[pos[v]]
		if xv < 0 {
			xv = 0
		}
		if xv > ub[v] {
			xv = ub[v]
		}
		x[v] = xv
	}
	yOut := growF(&ws.outY, m)
	for i := 0; i < m; i++ {
		if y[i] > 0 {
			yOut[i] = y[i]
		} else {
			yOut[i] = 0
		}
	}
	return &compSolution{status: status, x: x, y: yOut, iters: iters, pivots: pivots}, nil
}

// gaussJordan reduces the left m×m block of mat to the identity, applying the
// same operations to the right block (which then holds the inverse). Partial
// pivoting keeps it stable for the 0/1-heavy bases these LPs produce.
func gaussJordan(mat [][]float64, m int) {
	for col := 0; col < m; col++ {
		p := col
		for r := col + 1; r < m; r++ {
			if math.Abs(mat[r][col]) > math.Abs(mat[p][col]) {
				p = r
			}
		}
		mat[col], mat[p] = mat[p], mat[col]
		piv := mat[col][col]
		if piv == 0 {
			// Singular basis should not arise; leave the column untouched
			// rather than dividing by zero — the periodic refactor caller
			// will still hold a usable (if stale) inverse.
			continue
		}
		inv := 1 / piv
		for j := 0; j < 2*m; j++ {
			mat[col][j] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := mat[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*m; j++ {
				mat[r][j] -= f * mat[col][j]
			}
		}
	}
}

func errUnbounded() error {
	return errors.New("lp: unbounded direction encountered (input violates packing contract)")
}
