package truncation

import (
	"math"
	"math/rand"
	"testing"

	"r2t/internal/obs"
)

// partitionOcc builds a single-owner Occurrences instance: n occurrences,
// owner k%individuals each, weights from weight(k) (nil = all 1).
func partitionOcc(n, individuals int, weight func(int) float64) *Occurrences {
	sets := make([][]int32, n)
	for k := range sets {
		sets[k] = []int32{int32(k % individuals)}
	}
	o := occurrences(individuals, sets, nil)
	if weight != nil {
		for k := range o.Rows {
			o.Rows[k].Psi = weight(k)
		}
	}
	return o
}

func TestPartitionDetection(t *testing.T) {
	if tr := NewPartitionFromOccurrences(partitionOcc(10, 3, nil)); tr == nil {
		t.Fatal("single-owner occurrences must take the fast path")
	}
	// Shared provenance (a set naming two individuals) disqualifies.
	o := partitionOcc(10, 3, nil)
	o.Rows[4].RefIDs = []int32{0, 1}
	if NewPartitionFromOccurrences(o) != nil {
		t.Fatal("shared provenance must fall back to the LP")
	}
	// SPJA group rows couple variables; disqualify.
	o = partitionOcc(10, 3, nil)
	o.Groups = [][]int{{0, 1}}
	o.GroupPsi = []float64{1}
	if NewPartitionFromOccurrences(o) != nil {
		t.Fatal("grouped occurrences must fall back to the LP")
	}
	// NaN/Inf weights are left to the LP's validation errors.
	o = partitionOcc(4, 2, func(k int) float64 {
		if k == 2 {
			return math.NaN()
		}
		return 1
	})
	if NewPartitionFromOccurrences(o) != nil {
		t.Fatal("NaN ψ must fall back to the LP")
	}
	// Empty sets (no capacity row) and ψ ≤ 0 occurrences are fine.
	o = partitionOcc(6, 2, func(k int) float64 { return float64(k - 1) })
	o.Rows[5].RefIDs = nil
	tr := NewPartitionFromOccurrences(o)
	if tr == nil {
		t.Fatal("free variables and nonpositive ψ must not disqualify")
	}
	if n := tr.Partial().NumResults; n != 4 { // k=0 (ψ=-1) and k=1 (ψ=0) dropped
		t.Fatalf("NumResults = %d, want 4", n)
	}
}

// bitEqual requires exact bit equality, treating only identical NaN patterns
// as equal (the suite never produces NaN on the happy path).
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkEquivalence asserts PartitionTruncator and LPTruncator agree bit for
// bit on Value over taus, plus TrueAnswer and TauStar.
func checkEquivalence(t *testing.T, o *Occurrences, taus []float64) {
	t.Helper()
	pt := NewPartitionFromOccurrences(o)
	if pt == nil {
		t.Fatal("expected partition fast path")
	}
	lt := NewLPFromOccurrences(o)
	if !bitEqual(pt.TrueAnswer(), lt.TrueAnswer()) {
		t.Fatalf("TrueAnswer: partition %v, lp %v", pt.TrueAnswer(), lt.TrueAnswer())
	}
	if !bitEqual(pt.TauStar(), lt.TauStar()) {
		t.Fatalf("TauStar: partition %v, lp %v", pt.TauStar(), lt.TauStar())
	}
	for _, tau := range taus {
		pv, perr := pt.Value(tau)
		lv, lerr := lt.Value(tau)
		if (perr == nil) != (lerr == nil) {
			t.Fatalf("τ=%v: partition err %v, lp err %v", tau, perr, lerr)
		}
		if perr != nil {
			continue
		}
		if !bitEqual(pv, lv) {
			t.Fatalf("τ=%v: partition %v (%x), lp %v (%x)",
				tau, pv, math.Float64bits(pv), lv, math.Float64bits(lv))
		}
	}
	// Values must agree with per-τ Value entry for entry.
	valid := taus[:0:0]
	for _, tau := range taus {
		if tau >= 0 && !math.IsNaN(tau) && !math.IsInf(tau, 0) {
			valid = append(valid, tau)
		}
	}
	pvs, err := pt.Values(valid)
	if err != nil {
		t.Fatal(err)
	}
	lvs, err := lt.Values(valid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pvs {
		if !bitEqual(pvs[i], lvs[i]) {
			t.Fatalf("Values[%d] (τ=%v): partition %v, lp %v", i, valid[i], pvs[i], lvs[i])
		}
	}
}

// grid returns the τ race grid {0, 1, 2, 4, ..., 2^log2GSQ} the mechanism
// actually evaluates, plus fractional and oversized probes.
func grid(log2GSQ int) []float64 {
	taus := []float64{0}
	for j := 0; j <= log2GSQ; j++ {
		taus = append(taus, math.Pow(2, float64(j)))
	}
	return append(taus, 0.5, 3.75, 1e18)
}

func TestPartitionMatchesLPIntegerWeights(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(60)
		ind := 1 + rng.Intn(8)
		o := partitionOcc(n, ind, func(int) float64 { return float64(rng.Intn(9)) })
		// Scatter some free (no capacity row) variables.
		for k := range o.Rows {
			if rng.Intn(7) == 0 {
				o.Rows[k].RefIDs = nil
			}
		}
		checkEquivalence(t, o, grid(10))
	}
}

func TestPartitionMatchesLPFloatWeights(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(60)
		ind := 1 + rng.Intn(8)
		// Irregular floats force the emulation regime; include exact zeros and
		// negatives (dropped variables) to cross the build's filters.
		o := partitionOcc(n, ind, func(int) float64 {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return -rng.Float64()
			default:
				return rng.Float64() * 37.3
			}
		})
		taus := grid(8)
		for i := 0; i < 6; i++ {
			taus = append(taus, rng.Float64()*50)
		}
		checkEquivalence(t, o, taus)
	}
}

func TestPartitionIntegerOverflowFallsBackToEmulation(t *testing.T) {
	// Σψ beyond 2^52 must disable the sorted formula but stay bit-identical
	// through emulation.
	big := float64(maxExactTotal) // one variable already at the threshold+ boundary
	o := partitionOcc(3, 2, func(k int) float64 {
		if k == 0 {
			return big
		}
		return 3
	})
	pt := NewPartitionFromOccurrences(o)
	if pt == nil {
		t.Fatal("expected partition fast path")
	}
	if pt.intExact {
		t.Fatal("Σψ > 2^52 must clear the integer-exact regime")
	}
	checkEquivalence(t, o, []float64{0, 1, 2, 4, big, big * 2})
}

func TestPartitionInvalidTau(t *testing.T) {
	pt := NewPartitionFromOccurrences(partitionOcc(4, 2, nil))
	for _, tau := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := pt.Value(tau); err == nil {
			t.Fatalf("τ=%v: want error", tau)
		}
	}
	if _, err := pt.Values([]float64{1, -2}); err == nil {
		t.Fatal("Values with negative τ: want error")
	}
}

func TestPartitionRecorderCounts(t *testing.T) {
	pt := NewPartitionFromOccurrences(partitionOcc(4, 2, nil))
	rec := obs.NewRecorder()
	pt.SetRecorder(rec)
	if _, err := pt.Value(2); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Values([]float64{1, 4}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Counters[obs.CtrPartitionValues.String()]; got != 3 {
		t.Fatalf("partition_values = %d, want 3", got)
	}
}
