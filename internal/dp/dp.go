// Package dp provides the differential-privacy primitives R2T and the
// baseline mechanisms build on: Laplace noise with injectable sources,
// tail-bound helpers, and the sparse vector technique used by the
// local-sensitivity baseline.
package dp

import (
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"sync"

	"r2t/internal/fault"
)

// NoiseSource draws the random noise a mechanism adds. Implementations must
// be safe for use from a single goroutine; wrap with NewLockedSource to share.
type NoiseSource interface {
	// Laplace returns one sample of Lap(scale) (mean 0, b = scale).
	Laplace(scale float64) float64
}

// rngSource samples Laplace noise from a uniform generator: a seeded math/rand
// PRNG (NewSource — experiments and tests use explicit seeds so every table is
// reproducible run-to-run) or a ChaCha8 stream keyed from the system CSPRNG
// (NewCryptoSource — every release that was not handed a source).
type rngSource struct {
	r interface{ Float64() float64 }
}

// NewSource returns a deterministic, seeded noise source. Reproducibility only:
// math/rand reduces the seed mod 2³¹−1, so the stream has at most 31 bits of
// entropy and must never be keyed from secret randomness — NewCryptoSource is
// the source for real releases.
func NewSource(seed int64) NoiseSource {
	return &rngSource{r: rand.New(rand.NewSource(seed))}
}

// NewCryptoSource returns a noise source keyed with 256 bits from the
// operating system's CSPRNG (ChaCha8). It is the default for every mechanism
// run that was not given an explicit source: a guessable or low-entropy stream
// lets an adversary reconstruct the Laplace draws from one release and undo
// the privacy guarantee. There is deliberately no fallback — if the system's
// entropy source is broken, no safe noise can be drawn, so NewCryptoSource
// panics rather than silently degrading to predictable randomness.
func NewCryptoSource() NoiseSource {
	var key [32]byte
	if _, err := crand.Read(key[:]); err != nil {
		panic(fmt.Sprintf("dp: cannot read crypto/rand for the noise key: %v", err))
	}
	return &rngSource{r: randv2.New(randv2.NewChaCha8(key))}
}

// Laplace samples by inverse CDF: for U uniform in (−1/2, 1/2),
// −b·sgn(U)·ln(1−2|U|) ~ Lap(b).
func (s *rngSource) Laplace(scale float64) float64 {
	// Failpoint for the chaos suite: noise draws happen before any race
	// runs, so a panic here exercises core.Run's whole-run containment
	// rather than the per-race path. Laplace has no error return, so the
	// site honors panic payloads only — fault.ParseSpec rejects other kinds
	// for it. One atomic load when unarmed.
	if r, ok := fault.Fire("dp.laplace"); ok && r.Panic != nil {
		panic(r.Panic)
	}
	if scale <= 0 {
		return 0
	}
	u := s.r.Float64() - 0.5
	// Guard the measure-zero endpoint u = ±0.5.
	for 1-2*math.Abs(u) <= 0 {
		u = s.r.Float64() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1-2*math.Abs(u))
	}
	return -scale * math.Log(1-2*math.Abs(u))
}

// lockedSource serializes access to an inner source.
type lockedSource struct {
	mu sync.Mutex
	s  NoiseSource
}

// NewLockedSource wraps s so it can be shared across goroutines.
func NewLockedSource(s NoiseSource) NoiseSource { return &lockedSource{s: s} }

func (l *lockedSource) Laplace(scale float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Laplace(scale)
}

// ZeroNoise adds no noise. Only for tests that need the deterministic part
// of a mechanism.
type ZeroNoise struct{}

// Laplace returns 0.
func (ZeroNoise) Laplace(float64) float64 { return 0 }

// LaplaceTail returns t such that P(Lap(scale) > t) = prob (one-sided):
// t = scale·ln(1/(2·prob)). It is the quantity R2T's penalty term uses.
func LaplaceTail(scale, prob float64) float64 {
	if prob >= 0.5 {
		return 0
	}
	return scale * math.Log(1/(2*prob))
}

// Log2Ceil returns ⌈log2(x)⌉ for x ≥ 1, treating values below 2 as 1 —
// the number of races R2T runs for a given GS_Q.
func Log2Ceil(x float64) int {
	if x <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(x) - 1e-12))
}

// TauGrid returns R2T's candidate truncation thresholds {2¹, …, 2^L} with
// L = Log2Ceil(gsq) — the τ schedule of Algorithm 1 and the candidate set of
// Section 10.1. core.Run and the mechanism portfolio both build their grids
// here, so the racing mechanism and the baselines can never disagree on grid
// geometry; a non-power-of-two promise is covered from above.
func TauGrid(gsq float64) []float64 {
	n := Log2Ceil(gsq)
	out := make([]float64, n)
	for j := 1; j <= n; j++ {
		out[j-1] = math.Pow(2, float64(j))
	}
	return out
}

// Exponential selects an index from weights w_k ∝ exp(ε·u_k / (2·sens))
// where u are the utilities and sens bounds each utility's sensitivity —
// the exponential mechanism of McSherry–Talwar. The single uniform draw is
// derived from the noise source so runs stay reproducible.
func Exponential(utilities []float64, sens, eps float64, src NoiseSource) int {
	if len(utilities) == 0 {
		return -1
	}
	// Stabilize: shift by the max utility before exponentiating.
	maxU := utilities[0]
	for _, u := range utilities {
		if u > maxU {
			maxU = u
		}
	}
	weights := make([]float64, len(utilities))
	total := 0.0
	for k, u := range utilities {
		weights[k] = math.Exp(eps * (u - maxU) / (2 * sens))
		total += weights[k]
	}
	u := UniformFromLaplace(src.Laplace(1))
	acc := 0.0
	for k, w := range weights {
		acc += w
		if u <= acc/total {
			return k
		}
	}
	return len(utilities) - 1
}

// UniformFromLaplace maps a standard Laplace draw back to a uniform in
// (0,1) via its CDF — a convenience for mechanisms that need uniform
// randomness but only hold a NoiseSource.
func UniformFromLaplace(x float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x)
	}
	return 1 - 0.5*math.Exp(-x)
}

// SVT runs the sparse vector technique: it scans queries q_1, q_2, ... (each
// with sensitivity at most sens) and returns the index of the first query
// whose noisy value crosses the noisy threshold, or -1 if none does. The
// total privacy cost is eps. This is the selection loop of the
// local-sensitivity mechanism of Tao et al. (Appendix A of the paper).
type SVT struct {
	noisyThreshold float64
	sens           float64
	eps2           float64
	src            NoiseSource
}

// NewSVT prepares an SVT against threshold with per-query sensitivity sens
// and total budget eps (split evenly between threshold and query noise).
func NewSVT(threshold, sens, eps float64, src NoiseSource) *SVT {
	return &SVT{
		noisyThreshold: threshold + src.Laplace(2*sens/eps),
		sens:           sens,
		eps2:           eps / 2,
		src:            src,
	}
}

// Above tests one query value; it returns true when the noisy value crosses
// the noisy threshold (after which the SVT must not be reused).
func (s *SVT) Above(q float64) bool {
	return q+s.src.Laplace(4*s.sens/s.eps2) >= s.noisyThreshold
}
