package truncation

import (
	"strings"
	"testing"

	"r2t/internal/lp"
)

// cliqueOccurrences builds the edge-count occurrence form of a k-clique —
// enough pivots that MaxIters=1 cannot reach optimality.
func cliqueOccurrences(k int) *Occurrences {
	var sets [][]int32
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sets = append(sets, []int32{int32(i), int32(j)})
		}
	}
	return occurrences(k, sets, nil)
}

// TestIterationLimitPropagatesAsError: when the LP solver exhausts its
// iteration budget, Value and Values must return an error — never a partial
// objective. core.Run then fails the whole run; it can never release a
// non-optimal value.
func TestIterationLimitPropagatesAsError(t *testing.T) {
	wantErr := func(t *testing.T, v float64, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("iteration-limited solve returned %g with no error", v)
		}
		if !strings.Contains(err.Error(), "did not reach optimality") {
			t.Fatalf("error should state the optimality failure: %v", err)
		}
	}

	t.Run("grid path", func(t *testing.T) {
		tr := NewLPFromOccurrences(cliqueOccurrences(8))
		tr.SetSolveOptions(lp.Options{MaxIters: 1})
		v, err := tr.Value(2)
		wantErr(t, v, err)
		vs, err := tr.Values([]float64{2, 4})
		if err == nil {
			t.Fatalf("Values under iteration limit returned %v with no error", vs)
		}
	})

	// Sanity: the same operator with an adequate budget succeeds — the error
	// above is the iteration limit, not a broken instance.
	tr := NewLPFromOccurrences(cliqueOccurrences(8))
	if v, err := tr.Value(2); err != nil || v <= 0 {
		t.Fatalf("unconstrained solve: %g, %v", v, err)
	}
}
