package experiments

import (
	"math"

	"r2t/internal/dp"
	"r2t/internal/graph"
)

// SmoothTriangleEdgeDP answers triangle counting under *edge*-DP with smooth
// sensitivity (Nissim, Raskhodnikova, Smith). It exists to demonstrate the
// paper's Section 2/4 point: under edge-DP (no FK constraints — each edge is
// its own individual) local sensitivity is small and smooth-sensitivity
// mechanisms give excellent utility, whereas under node-DP (FK constraints)
// the local sensitivity degenerates to GS_Q and the whole smooth-sensitivity
// family buys nothing — which is why R2T exists.
//
// Local sensitivity of triangle counting at edge distance k:
// LS_k(G) ≤ max_{u,v} |N(u) ∩ N(v)| + k (adding k edges can raise any pair's
// common-neighbor count by at most k, and also create new high-overlap
// pairs bounded the same way, capped by n−2). The β-smooth bound is
// S*(G) = max_k e^{−βk}·LS_k(G), maximized over k ∈ [0, n].
//
// Noise: Laplace with scale 2·S*/ε and β = ε/2 gives (ε, δ)-DP with
// δ ≈ e^{−ε·n/2} (the standard Laplace-with-smooth-bound calibration); the
// paper's edge-DP baselines make the same compromise.
func SmoothTriangleEdgeDP(g *graph.Graph, eps float64, src dp.NoiseSource) float64 {
	count := graph.Count(g, graph.Triangles)
	s := smoothTriangleBound(g, eps/2)
	return count + src.Laplace(2*s/eps)
}

// smoothTriangleBound computes max_k e^{−βk}·(maxCommon + k), capped at n−2.
func smoothTriangleBound(g *graph.Graph, beta float64) float64 {
	maxCommon := maxCommonNeighbors(g)
	cap := float64(g.N - 2)
	if cap < 0 {
		cap = 0
	}
	best := 0.0
	for k := 0; ; k++ {
		ls := float64(maxCommon) + float64(k)
		if ls > cap {
			ls = cap
		}
		v := math.Exp(-beta*float64(k)) * ls
		if v > best {
			best = v
		}
		// Once LS saturates at the cap, e^{−βk} only decays: stop.
		if float64(maxCommon)+float64(k) >= cap {
			break
		}
		// Early exit: future terms are bounded by e^{−βk}·cap.
		if math.Exp(-beta*float64(k))*cap < best {
			break
		}
	}
	return best
}

// maxCommonNeighbors returns max over adjacent pairs {u,v} of
// |N(u) ∩ N(v)| — the local sensitivity of triangle counting at distance 0
// under edge-DP. (Non-adjacent pairs matter only for edge additions, which
// the +k term covers.)
func maxCommonNeighbors(g *graph.Graph) int {
	best := 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[u] {
			if v <= int32(u) {
				continue
			}
			if c := commonCount(g.Adj[u], g.Adj[int(v)]); c > best {
				best = c
			}
		}
	}
	return best
}

func commonCount(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
