// The graph-pattern baselines R2T is compared against in Section 10 (Table 2).
// They are experimental comparators, not release mechanisms of the library:
// the production portfolio lives in internal/mech.
//
//   - NT  — naive truncation by degree + smooth sensitivity [22] (graph
//     pattern counting under node-DP).
//   - SDE — the smooth distance estimator of Blocki et al. [8].
//   - RM  — a stand-in for the recursive mechanism [9]: a greedy
//     inverse-sensitivity mechanism that reproduces RM's accuracy/cost
//     profile (very accurate, very slow). It is a documented simplification,
//     not a faithful port — see DESIGN.md §4.
//
// NT and SDE follow the papers' constructions with conservative β-smooth
// upper bounds computed from the degree histogram; their utility behaviour
// (error often exceeding the query answer unless ε is very large) matches
// the paper's findings by construction.

package experiments

import (
	"math"

	"r2t/internal/dp"
	"r2t/internal/graph"
	"r2t/internal/truncation"
)

// NT is naive truncation with smooth sensitivity [22] for graph pattern
// counting under node-DP: delete nodes of degree > θ, count the pattern,
// and add noise calibrated to a β-smooth upper bound on the truncated
// query's local sensitivity computed from the degree histogram.
func NT(g *graph.Graph, p graph.Pattern, theta int, eps float64, src dp.NoiseSource) float64 {
	truncated := g.DropHighDegree(theta)
	count := graph.Count(truncated, p)
	s := ntSmoothBound(g, p, theta, eps/2)
	return count + src.Laplace(2*s/eps)
}

// ntSmoothBound computes max_k e^{−βk}·LS_k with
// LS_k ≤ (C_k + k + 1)·f_p(θ): within distance k, only nodes whose degree
// lies within k of the threshold (plus the k changed nodes themselves) can
// cross it, and each crossing changes the count by at most f_p(θ), the
// maximum number of patterns through one node of a θ-degree-bounded graph.
func ntSmoothBound(g *graph.Graph, p graph.Pattern, theta int, beta float64) float64 {
	f := patternsPerNode(p, theta)
	degHist := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.N; u++ {
		degHist[g.Degree(u)]++
	}
	cum := func(lo, hi int) int { // #nodes with degree in [lo, hi]
		if lo < 0 {
			lo = 0
		}
		if hi > len(degHist)-1 {
			hi = len(degHist) - 1
		}
		total := 0
		for d := lo; d <= hi; d++ {
			total += degHist[d]
		}
		return total
	}
	best := 0.0
	for k := 0; k <= g.N; k++ {
		ck := cum(theta-k+1, theta+k)
		ls := float64(ck+k+1) * f
		if v := math.Exp(-beta*float64(k)) * ls; v > best {
			best = v
		}
		// Once the decay dominates the largest possible LS, stop.
		if math.Exp(-beta*float64(k))*float64(g.N+k+1)*f < best {
			break
		}
	}
	return best
}

// patternsPerNode bounds the number of occurrences of p through one node in
// a graph with maximum degree θ.
func patternsPerNode(p graph.Pattern, theta int) float64 {
	t := float64(theta)
	switch p {
	case graph.Edges:
		return t
	case graph.Paths2, graph.Triangles:
		return t * t
	case graph.Rectangles:
		return t * t * t
	}
	return t
}

// SDE is the smooth-distance-estimator mechanism of Blocki et al. [8]:
// project the graph to the θ-degree-bounded family, answer on the projection
// with restricted sensitivity f_p(θ), and inflate the noise by a privately
// estimated projection distance (distance to the bounded family has global
// sensitivity 1, so a Laplace estimate of it is cheap). The error scale is
// f_p(θ)·(distance+1)/ε — far from the answer whenever the graph has hubs
// above the threshold, which is the regime Table 2 shows SDE losing in.
func SDE(g *graph.Graph, p graph.Pattern, theta int, eps float64, src dp.NoiseSource) float64 {
	epsDist, epsOut := eps/4, 3*eps/4
	projected := g.DropHighDegree(theta)
	count := graph.Count(projected, p)
	dist := greedyProjectionDistance(g, theta)
	noisyDist := float64(dist) + math.Abs(src.Laplace(1/epsDist)) + 1
	scale := 2 * patternsPerNode(p, theta) * noisyDist / epsOut
	return count + src.Laplace(scale)
}

// greedyProjectionDistance counts how many nodes a greedy high-degree-first
// deletion needs before max degree ≤ θ.
func greedyProjectionDistance(g *graph.Graph, theta int) int {
	deg := make([]int, g.N)
	removed := make([]bool, g.N)
	for u := 0; u < g.N; u++ {
		deg[u] = g.Degree(u)
	}
	dist := 0
	for {
		worst, wd := -1, theta
		for u := 0; u < g.N; u++ {
			if !removed[u] && deg[u] > wd {
				worst, wd = u, deg[u]
			}
		}
		if worst < 0 {
			return dist
		}
		removed[worst] = true
		dist++
		for _, v := range g.Adj[worst] {
			if !removed[v] {
				deg[v]--
			}
		}
		deg[worst] = 0
	}
}

// RM is the recursive-mechanism stand-in (see the file comment): a greedy
// inverse-sensitivity mechanism. It repeatedly removes the individual with
// the largest remaining sensitivity, recording the query value v_k after k
// removals, then samples k by the exponential mechanism with utility −k and
// releases v_k. Accuracy is excellent when the instance is stable (error
// grows with the number of removals needed to change the answer much), and
// the greedy sweep over all individuals makes it far slower than R2T —
// matching the profile reported for RM in Table 2.
func RM(o *truncation.Occurrences, eps float64, src dp.NoiseSource) float64 {
	n := len(o.Universe)
	// occurrence → alive; individual → its occurrences.
	alive := make([]bool, len(o.Rows))
	for k := range alive {
		alive[k] = true
	}
	byInd := make([][]int32, n)
	sens := make([]float64, n)
	cur := 0.0
	for k, row := range o.Rows {
		cur += row.Psi
		for _, j := range row.RefIDs {
			byInd[j] = append(byInd[j], int32(k))
			sens[j] += row.Psi
		}
	}
	deadInd := make([]bool, n)
	values := []float64{cur}
	for step := 0; step < n; step++ {
		// Greedy: remove the most sensitive remaining individual.
		worst := -1
		for j := 0; j < n; j++ {
			if !deadInd[j] && (worst < 0 || sens[j] > sens[worst]) {
				worst = j
			}
		}
		if worst < 0 || sens[worst] == 0 {
			break
		}
		deadInd[worst] = true
		for _, k := range byInd[worst] {
			if !alive[k] {
				continue
			}
			alive[k] = false
			row := o.Rows[k]
			cur -= row.Psi
			for _, j := range row.RefIDs {
				sens[j] -= row.Psi
			}
		}
		values = append(values, cur)
	}
	// Exponential mechanism over k with utility −k (distance to the data).
	utilities := make([]float64, len(values))
	for k := range values {
		utilities[k] = -float64(k)
	}
	// Distance-to-data utility has sensitivity 1.
	k := dp.Exponential(utilities, 1, eps, src)
	return values[k]
}

// RandomTheta picks a degree threshold from {2,4,...,D} uniformly, the
// protocol Section 10.1 uses for NT and SDE. It consumes randomness from src
// so experiment repetitions vary deterministically with the seed.
func RandomTheta(d int, src dp.NoiseSource) int {
	choices := []int{}
	for t := 2; t <= d; t *= 2 {
		choices = append(choices, t)
	}
	u := dp.UniformFromLaplace(src.Laplace(1))
	idx := int(u * float64(len(choices)))
	if idx >= len(choices) {
		idx = len(choices) - 1
	}
	return choices[idx]
}
