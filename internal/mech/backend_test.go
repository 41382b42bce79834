package mech

import (
	"math"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/truncation"
)

func TestNaiveLaplace(t *testing.T) {
	if got := NaiveLaplace(100, 1000, 1, dp.ZeroNoise{}); got != 100 {
		t.Fatalf("got %g", got)
	}
	// Noise magnitude should reflect gsq/eps: check variance loosely.
	src := dp.NewSource(1)
	var sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := NaiveLaplace(0, 1000, 2, src)
		sum2 += d * d
	}
	want := 2 * 500.0 * 500.0 // Var(Lap(500))
	if got := sum2 / n; math.Abs(got-want) > 0.15*want {
		t.Errorf("variance %g, want ≈ %g", got, want)
	}
}

func TestLPFixedTauBiasAndNoise(t *testing.T) {
	// A 10-star under edge counting: Q(I,τ) = min(10, τ).
	var sets [][]int32
	for leaf := int32(1); leaf <= 10; leaf++ {
		sets = append(sets, []int32{0, leaf})
	}
	occ := exec.FromSets("t", 11, sets)
	tr := truncation.NewLPFromOccurrences(occ)
	got, err := LPFixedTau(tr, 4, 1, dp.ZeroNoise{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("LP τ=4 on 10-star = %g, want 4 (bias!)", got)
	}
	got, err = LPFixedTau(tr, 16, 1, dp.ZeroNoise{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("LP τ=16 on 10-star = %g, want 10", got)
	}
}

func buildNaive(t *testing.T, sens []float64) *truncation.NaiveTruncator {
	t.Helper()
	// One occurrence per individual, weighted by its sensitivity.
	sets := make([][]int32, len(sens))
	for j := range sets {
		sets[j] = []int32{int32(j)}
	}
	occ := exec.FromSets("t", len(sens), sets)
	for j, s := range sens {
		occ.Rows[j].Psi = s
	}
	nt, err := truncation.NewNaiveFromOccurrences(occ)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestLSErrorScalesWithGSQ(t *testing.T) {
	// Appendix A: LS's error is Ω(GSQ/log GSQ) — within a log factor of the
	// naive Laplace mechanism — even on maximally stable data. Check the
	// error is in the GSQ/ε ballpark: far above the data scale, and not more
	// than a small multiple of the naive scale.
	sens := make([]float64, 500)
	for i := range sens {
		sens[i] = 10
	}
	nt := buildNaive(t, sens)
	var errSum float64
	const runs = 50
	const gsq, eps = 1e6, 4.0
	for seed := int64(0); seed < runs; seed++ {
		got, err := LS(nt, gsq, eps, dp.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		errSum += math.Abs(got - 5000)
	}
	avg := errSum / runs
	if avg < 5000 {
		t.Errorf("LS average error %g suspiciously small — Appendix A predicts Ω(GSQ/log GSQ)", avg)
	}
	if avg > 8*gsq/eps {
		t.Errorf("LS average error %g far above even naive Laplace scale %g", avg, gsq/eps)
	}
}

func TestLSWorseThanTruthWithLargeGSQ(t *testing.T) {
	// Appendix A: LS error scales near-linearly with GSQ. Compare the
	// average error at two GSQ values; it should grow substantially.
	sens := make([]float64, 200)
	for i := range sens {
		sens[i] = 5
	}
	nt := buildNaive(t, sens)
	avgErr := func(gsq float64) float64 {
		var s float64
		const runs = 60
		for seed := int64(0); seed < runs; seed++ {
			got, err := LS(nt, gsq, 0.8, dp.NewSource(seed+100))
			if err != nil {
				t.Fatal(err)
			}
			s += math.Abs(got - 1000)
		}
		return s / runs
	}
	small, big := avgErr(1e3), avgErr(1e7)
	if big < 4*small {
		t.Errorf("LS error should grow ≈ linearly in GSQ: %g (1e3) vs %g (1e7)", small, big)
	}
}
