package experiments

import (
	"math"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/graph"
	"r2t/internal/truncation"

	"r2t/internal/core"
)

func TestMaxCommonNeighbors(t *testing.T) {
	// K4: every adjacent pair shares the other 2 vertices.
	k4 := graph.New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddEdge(i, j)
		}
	}
	k4.Finalize()
	if got := maxCommonNeighbors(k4); got != 2 {
		t.Errorf("K4 max common = %d, want 2", got)
	}
	// A path has no common neighbors between adjacent pairs.
	p3 := graph.New(3)
	p3.AddEdge(0, 1)
	p3.AddEdge(1, 2)
	p3.Finalize()
	if got := maxCommonNeighbors(p3); got != 0 {
		t.Errorf("path max common = %d, want 0", got)
	}
}

func TestSmoothBoundDominatesLocalSensitivity(t *testing.T) {
	g := graph.GenSocial(200, 800, 48, 3)
	for _, beta := range []float64{0.1, 0.4, 1.6} {
		s := smoothTriangleBound(g, beta)
		if s < float64(maxCommonNeighbors(g)) {
			t.Errorf("β=%g: smooth bound %g below LS_0 %d", beta, s, maxCommonNeighbors(g))
		}
		if s > float64(g.N) {
			t.Errorf("β=%g: smooth bound %g above the n cap", beta, s)
		}
	}
	// Smaller β (less smoothing budget) must give a (weakly) larger bound.
	if smoothTriangleBound(g, 0.05) < smoothTriangleBound(g, 0.8)-1e-9 {
		t.Error("smooth bound should grow as β shrinks")
	}
}

// TestEdgeDPBeatsNodeDPOnTriangles demonstrates the Section 2 contrast: under
// edge-DP, smooth sensitivity gives far better utility than any node-DP
// mechanism can, because node-DP must also hide each node's *entire*
// neighborhood.
func TestEdgeDPBeatsNodeDPOnTriangles(t *testing.T) {
	g := graph.GenSocial(400, 1600, 64, 9)
	count := graph.Count(g, graph.Triangles)
	if count < 50 {
		t.Skip("generator produced too few triangles for a meaningful ratio")
	}
	const eps = 1.0
	const runs = 30

	var edgeErr float64
	for seed := int64(0); seed < runs; seed++ {
		edgeErr += math.Abs(SmoothTriangleEdgeDP(g, eps, dp.NewSource(seed)) - count)
	}
	edgeErr /= runs

	occ := exec.FromSets("Node", g.N, graph.Occurrences(g, graph.Triangles))
	tr := truncation.NewLPFromOccurrences(occ)
	var nodeErr float64
	for seed := int64(0); seed < runs; seed++ {
		out, err := core.Run(tr, core.Config{
			Epsilon: eps, GSQ: 64 * 64, Noise: dp.NewSource(seed), EarlyStop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodeErr += math.Abs(out.Estimate - count)
	}
	nodeErr /= runs

	t.Logf("triangles=%g: edge-DP smooth sens err=%.1f, node-DP R2T err=%.1f", count, edgeErr, nodeErr)
	if edgeErr*2 > nodeErr {
		t.Errorf("edge-DP (%.1f) should be far more accurate than node-DP (%.1f) — weaker privacy, better utility", edgeErr, nodeErr)
	}
}
