package experiments

import (
	"math"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/graph"
)

func starGraph(centerDeg int) *graph.Graph {
	g := graph.New(centerDeg + 1)
	for i := 1; i <= centerDeg; i++ {
		g.AddEdge(0, i)
	}
	g.Finalize()
	return g
}

func TestNTOnBoundedGraphIsAccurateForLargeEps(t *testing.T) {
	// A graph already below the threshold: no truncation bias, and with a
	// huge ε the smooth-sensitivity noise vanishes.
	g := graph.GenRoad(20, 20, 3)
	count := graph.Count(g, graph.Edges)
	got := NT(g, graph.Edges, 16, 1e6, dp.NewSource(1))
	if math.Abs(got-count) > 0.01*count+1 {
		t.Errorf("NT = %g, want ≈ %g at ε→∞", got, count)
	}
}

func TestNTBiasWhenThetaTooLow(t *testing.T) {
	// θ=2 on a 10-star: the hub is dropped, count collapses to 0.
	g := starGraph(10)
	got := NT(g, graph.Edges, 2, 1e9, dp.NewSource(1))
	if math.Abs(got) > 1e-3 {
		t.Errorf("NT with θ=2 on a star = %g, want ≈ 0 (hub truncated)", got)
	}
}

func TestNTSmoothBoundGrowsNearThreshold(t *testing.T) {
	// Nodes right at the threshold inflate the smooth bound.
	flat := graph.GenRoad(15, 15, 1) // degrees ≤ 8, θ=16 far away
	spiky := starGraph(16)           // hub exactly at θ=16
	bFlat := ntSmoothBound(flat, graph.Edges, 16, 0.4)
	bSpiky := ntSmoothBound(spiky, graph.Edges, 16, 0.4)
	if bSpiky <= bFlat/4 {
		t.Errorf("smooth bound should react to near-threshold nodes: flat %g, spiky %g", bFlat, bSpiky)
	}
	if bFlat <= 0 || bSpiky <= 0 {
		t.Error("smooth bounds must be positive")
	}
}

func TestSDEDistanceZeroOnBoundedGraph(t *testing.T) {
	g := graph.GenRoad(10, 10, 2)
	if d := greedyProjectionDistance(g, 16); d != 0 {
		t.Errorf("distance = %d, want 0", d)
	}
	// On a star with θ=2 the greedy removes the hub: distance 1.
	if d := greedyProjectionDistance(starGraph(10), 2); d != 1 {
		t.Errorf("star distance = %d, want 1", d)
	}
}

func TestSDENoiseGrowsWithDistance(t *testing.T) {
	// SDE's noise scale is proportional to the projection distance: a graph
	// with hubs above the threshold must be answered far more noisily than a
	// bounded graph of similar size.
	avgErr := func(g *graph.Graph) float64 {
		count := graph.Count(g, graph.Edges)
		var s float64
		const runs = 40
		for seed := int64(0); seed < runs; seed++ {
			s += math.Abs(SDE(g, graph.Edges, 16, 0.8, dp.NewSource(seed)) - count)
		}
		return s / runs
	}
	bounded := graph.GenRoad(14, 14, 3) // degrees ≤ 8: distance 0
	hubby := graph.New(200)
	for hub := 0; hub < 8; hub++ {
		for i := 80 + hub; i < 200; i++ {
			hubby.AddEdge(hub, i)
		}
	}
	hubby.Finalize()
	eb, eh := avgErr(bounded), avgErr(hubby)
	if eh < 2.5*eb {
		t.Errorf("SDE error should inflate with distance: bounded %g vs hubby %g", eb, eh)
	}
	// And the absolute scale on the hubby graph is substantial relative to
	// its ~960 edges.
	if eh < 100 {
		t.Errorf("hubby SDE error %g implausibly small", eh)
	}
}

func TestRMAccurateOnStableInstance(t *testing.T) {
	// 100 individuals each with one unit occurrence: removing any one
	// changes the answer by 1, so RM's exponential mechanism lands near 100.
	occ := exec.FromSets("t", 100, singletons(100))
	var worst float64
	for seed := int64(0); seed < 30; seed++ {
		got := RM(occ, 1, dp.NewSource(seed))
		if e := math.Abs(got - 100); e > worst {
			worst = e
		}
	}
	if worst > 20 {
		t.Errorf("RM worst error %g on a maximally stable instance", worst)
	}
}

func TestRMExactWithoutRandomTail(t *testing.T) {
	// With a ZeroNoise source the uniform becomes 0.5 and the exponential
	// mechanism picks k=0 whenever its weight dominates: estimate = truth.
	occ := exec.FromSets("t", 10, singletons(10))
	got := RM(occ, 8, dp.ZeroNoise{})
	if got != 10 {
		t.Errorf("RM = %g, want 10", got)
	}
}

// singletons returns n one-individual sets, individual j in set j.
func singletons(n int) [][]int32 {
	sets := make([][]int32, n)
	for j := range sets {
		sets[j] = []int32{int32(j)}
	}
	return sets
}

func TestRandomThetaRange(t *testing.T) {
	src := dp.NewSource(5)
	for i := 0; i < 200; i++ {
		th := RandomTheta(1024, src)
		if th < 2 || th > 1024 {
			t.Fatalf("θ = %d out of range", th)
		}
		ok := false
		for v := 2; v <= 1024; v *= 2 {
			if th == v {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("θ = %d not a power of two", th)
		}
	}
}
