package dp

import (
	"math"
	"sync"
	"testing"
)

func TestLaplaceMoments(t *testing.T) {
	src := NewSource(42)
	const n = 200000
	const scale = 3.0
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := src.Laplace(scale)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05*scale {
		t.Errorf("mean = %g, want ≈ 0", mean)
	}
	want := 2 * scale * scale // Var(Lap(b)) = 2b²
	if math.Abs(variance-want) > 0.1*want {
		t.Errorf("variance = %g, want ≈ %g", variance, want)
	}
}

func TestLaplaceTailEmpirical(t *testing.T) {
	src := NewSource(7)
	const n = 100000
	const scale = 2.0
	const prob = 0.05
	tail := LaplaceTail(scale, prob)
	count := 0
	for i := 0; i < n; i++ {
		if src.Laplace(scale) > tail {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-prob) > 0.01 {
		t.Errorf("empirical tail %g, want ≈ %g", got, prob)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	src := NewSource(1)
	if got := src.Laplace(0); got != 0 {
		t.Errorf("Laplace(0) = %g", got)
	}
	if got := src.Laplace(-1); got != 0 {
		t.Errorf("Laplace(-1) = %g", got)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	a, b := NewSource(9), NewSource(9)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("same seed must give same stream")
		}
	}
}

// TestCryptoSource: unseeded sources are keyed independently from the system
// CSPRNG (two streams differ at once) and sample the same Laplace law as the
// seeded ones. The bounds are 4.5σ and 6σ at n = 10⁵, so a false alarm is a
// ~10⁻⁵ event.
func TestCryptoSource(t *testing.T) {
	a, b := NewCryptoSource(), NewCryptoSource()
	if a.Laplace(1) == b.Laplace(1) {
		t.Fatal("two crypto-keyed streams agree on their first draw")
	}
	const n = 100000
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := a.Laplace(1)
		sum += x
		sumAbs += math.Abs(x)
	}
	if mean := sum / n; math.Abs(mean) >= 0.02 {
		t.Errorf("mean = %g, want |mean| < 0.02", mean)
	}
	if meanAbs := sumAbs / n; math.Abs(meanAbs-1) > 0.02 { // E|Lap(b)| = b
		t.Errorf("mean |x| = %g, want within 2%% of 1", meanAbs)
	}
}

func TestZeroNoise(t *testing.T) {
	if (ZeroNoise{}).Laplace(100) != 0 {
		t.Error("ZeroNoise should return 0")
	}
}

func TestLockedSource(t *testing.T) {
	src := NewLockedSource(NewSource(3))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				src.Laplace(1)
			}
		}()
	}
	wg.Wait() // race detector validates safety
}

func TestLog2Ceil(t *testing.T) {
	cases := map[float64]int{
		1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4,
		256: 8, 1024: 10, 1 << 20: 20, 1e6: 20,
	}
	for x, want := range cases {
		if got := Log2Ceil(x); got != want {
			t.Errorf("Log2Ceil(%g) = %d, want %d", x, got, want)
		}
	}
}

func TestExponentialPrefersHighUtility(t *testing.T) {
	// With utilities [0, 0, 10] and a healthy ε, index 2 should dominate.
	counts := [3]int{}
	for seed := int64(0); seed < 500; seed++ {
		k := Exponential([]float64{0, 0, 10}, 1, 2, NewSource(seed))
		counts[k]++
	}
	if counts[2] < 450 {
		t.Errorf("high-utility index chosen %d/500 times", counts[2])
	}
	// With ε→0 the choice is near-uniform.
	counts = [3]int{}
	for seed := int64(0); seed < 600; seed++ {
		k := Exponential([]float64{0, 0, 10}, 1, 1e-9, NewSource(seed))
		counts[k]++
	}
	for i, c := range counts {
		if c < 120 || c > 280 {
			t.Errorf("ε≈0: index %d chosen %d/600 times, want ≈200", i, c)
		}
	}
}

func TestExponentialEdgeCases(t *testing.T) {
	if Exponential(nil, 1, 1, NewSource(1)) != -1 {
		t.Error("empty utilities should return -1")
	}
	if k := Exponential([]float64{5}, 1, 1, NewSource(1)); k != 0 {
		t.Errorf("single candidate: %d", k)
	}
	// Huge utilities must not overflow (max-shift stabilization).
	if k := Exponential([]float64{1e308, 1e308 - 1}, 1, 1, NewSource(1)); k < 0 || k > 1 {
		t.Errorf("overflow handling broken: %d", k)
	}
}

func TestUniformFromLaplace(t *testing.T) {
	src := NewSource(8)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		u := UniformFromLaplace(src.Laplace(1))
		if u < 0 || u > 1 {
			t.Fatalf("u = %g out of range", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean %g, want ≈ 0.5", mean)
	}
}

func TestSVTStopsAtLargeValue(t *testing.T) {
	// With modest noise, SVT should stop near where values cross the
	// threshold; run many times and check the stop index is usually sane.
	late, early := 0, 0
	trials := 200
	for seed := int64(0); seed < int64(trials); seed++ {
		src := NewSource(seed)
		s := NewSVT(100, 1, 4.0, src)
		stopped := -1
		for i := 0; i < 20; i++ {
			v := float64(i * 10) // crosses 100 at i=10
			if s.Above(v) {
				stopped = i
				break
			}
		}
		if stopped == -1 || stopped > 15 {
			late++
		}
		if stopped >= 0 && stopped < 5 {
			early++
		}
	}
	if late > trials/4 {
		t.Errorf("SVT stopped late/never in %d/%d trials", late, trials)
	}
	if early > trials/4 {
		t.Errorf("SVT stopped early in %d/%d trials", early, trials)
	}
}

func TestTauGrid(t *testing.T) {
	grid := TauGrid(256)
	if len(grid) != 8 || grid[0] != 2 || grid[7] != 256 {
		t.Fatalf("grid = %v", grid)
	}
	// A non-power-of-two promise is covered from above.
	if grid := TauGrid(300); len(grid) != 9 || grid[8] != 512 {
		t.Fatalf("grid(300) = %v", grid)
	}
}
