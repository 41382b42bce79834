package truncation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"r2t/internal/exec"
)

// occurrences builds an occurrence form over n densely numbered individuals
// from per-row id sets and weights (nil psi: every weight 1).
func occurrences(n int, sets [][]int32, psi []float64) *Occurrences {
	o := exec.FromSets("t", n, sets)
	for k, w := range psi {
		o.Rows[k].Psi = w
	}
	return o
}

// randomOccurrences draws a random SJA workload in occurrence form.
func randomOccurrences(rng *rand.Rand) *Occurrences {
	n := 2 + rng.Intn(8)
	m := 1 + rng.Intn(30)
	var sets [][]int32
	var psi []float64
	for k := 0; k < m; k++ {
		maxSize := 3
		if n < maxSize {
			maxSize = n
		}
		size := 1 + rng.Intn(maxSize)
		seen := map[int32]bool{}
		var set []int32
		for len(set) < size {
			j := int32(rng.Intn(n))
			if !seen[j] {
				seen[j] = true
				set = append(set, j)
			}
		}
		sets = append(sets, set)
		psi = append(psi, float64(rng.Intn(5)))
	}
	return occurrences(n, sets, psi)
}

// TestQuickLPTruncatorInvariants property-checks the LP operator on random
// occurrence workloads: monotone in τ, bounded by Q(I), exact at τ*, zero at
// τ=0, and bounded below by the best single-τ'-budget argument
// Q(I,τ) ≥ (τ/τ*)·Q(I)… (we check the simpler sandwich 0 ≤ Q(I,τ) ≤ Q(I)).
func TestQuickLPTruncatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := randomOccurrences(rng)
		tr := NewLPFromOccurrences(o)
		answer := tr.TrueAnswer()
		prev := -1.0
		for _, tau := range []float64{0, 1, 2, 3, 5, 8, 13, 21, 1e6} {
			v, err := tr.Value(tau)
			if err != nil {
				t.Logf("seed %d τ=%g: %v", seed, tau, err)
				return false
			}
			if v < prev-1e-9 || v < -1e-9 || v > answer+1e-7 {
				t.Logf("seed %d τ=%g: v=%g prev=%g answer=%g", seed, tau, v, prev, answer)
				return false
			}
			prev = v
		}
		vStar, err := tr.Value(tr.TauStar())
		if err != nil || math.Abs(vStar-answer) > 1e-6*(1+answer) {
			t.Logf("seed %d: Q(τ*)=%g answer=%g err=%v", seed, vStar, answer, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBounderSandwich: the dual bound is always ≥ the exact value and
// never increases as it tightens.
func TestQuickBounderSandwich(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := randomOccurrences(rng)
		tr := NewLPFromOccurrences(o)
		tau := float64(1 + rng.Intn(10))
		v, err := tr.Value(tau)
		if err != nil {
			return false
		}
		b := tr.Bounder(tau)
		prev := math.Inf(1)
		for i := 0; i < 6; i++ {
			bound := b.Tighten(8)
			if bound < v-1e-6 || bound > prev+1e-9 {
				t.Logf("seed %d: bound %g, value %g, prev %g", seed, bound, v, prev)
				return false
			}
			prev = bound
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
