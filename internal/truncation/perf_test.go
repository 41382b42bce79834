package truncation

import (
	"testing"
	"time"

	"r2t/internal/exec"
	"r2t/internal/graph"
)

// TestWedgeLPPerformance tracks the cost of the hardest LP shape: length-2
// paths on a heavy-tailed graph (many variables, one giant component).
func TestWedgeLPPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.GenSocial(300, 1200, 56, 7)
	occ := exec.FromSets("Node", g.N, graph.Occurrences(g, graph.Paths2))
	tr := NewLPFromOccurrences(occ)
	t.Logf("wedges: %d vars, %d individuals, τ*=%g", tr.NumVariables(), tr.NumCapacityRows(), tr.TauStar())
	for _, tau := range []float64{2, 16, 128, 2048} {
		start := time.Now()
		v, err := tr.Value(tau)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("τ=%-6g Q=%-10.1f in %s", tau, v, time.Since(start).Round(time.Millisecond))
	}
}
