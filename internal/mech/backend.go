// Package mech is the production mechanism portfolio: the release mechanisms
// selectable per request next to R2T, and the cost-based chooser over them
// (choose.go).
//
//   - NaiveLaplace — the textbook Laplace mechanism at global sensitivity.
//   - LPFixedTau   — the LP-based truncation mechanism of Kasiviswanathan et
//     al. [22] with an externally supplied τ (Table 3 shows why
//     fixing τ is hopeless).
//   - LS           — the local-sensitivity SVT mechanism of Tao et al. [37]
//     for self-join-free queries, as analysed in Appendix A.
//
// Each backend wraps one mechanism behind a uniform interface, threads the
// stage profiler through its hot sections (lp-solve for truncated
// evaluations, noise for Laplace draws — so r2td's r2td_stage_* metrics cover
// them exactly as they cover R2T), and reports which truncation operator it
// needs so the engine builds only that. The paper's graph-only comparators
// (NT, SDE, RM, edge-DP smooth sensitivity) are not release mechanisms and
// live with the experiment harness in internal/experiments.
//
// PRIVACY: every backend releases an ε-DP estimate **given its own promise**.
// R2T stays ε-DP even when the GS_Q promise is wrong (only utility
// suffers). Laplace and fixed-τ are ε-DP only when GS_Q really bounds the
// query's global sensitivity — the promise is privacy-critical for them,
// exactly as for the textbook mechanism. LS is ε-DP for self-join-free
// queries (Appendix A). The chooser (choose.go) only offers a backend where
// its structural requirements hold; the promise itself is the caller's
// contract in every mechanism of this repository.
package mech

import (
	"fmt"
	"time"

	"r2t/internal/core"
	"r2t/internal/dp"
	"r2t/internal/obs"
	"r2t/internal/truncation"
)

// TruncatorKind names the truncation operator a backend consumes, so the
// engine can build exactly what is needed (the LP/partition structure is the
// dominant setup cost; Laplace needs none at all).
type TruncatorKind int

const (
	// TruncNone: the backend only reads the true answer; tr may be nil.
	TruncNone TruncatorKind = iota
	// TruncLP: the LP-based operator (or its bit-identical partition fast
	// path) — valid for every SPJA query.
	TruncLP
	// TruncNaive: naive truncation — self-join-free, projection-free only.
	TruncNaive
)

// Params carries the mechanism-independent run parameters. Epsilon, GSQ and
// Noise are required; the rest default sensibly.
type Params struct {
	Epsilon float64
	GSQ     float64
	Beta    float64        // utility failure probability (0 → 0.1)
	Noise   dp.NoiseSource // required: the caller owns seeding policy
	Rec     *obs.Recorder  // nil = profiling off (nil-safe throughout)

	// Answer is Q(I), for backends with TruncNone (no truncator to ask).
	Answer float64

	// FixedTau is the fixed-τ backend's threshold; 0 means GS_Q.
	FixedTau float64

	// R2T-only knobs, passed through to core.Run.
	EarlyStop bool
	Workers   int
	Interrupt <-chan struct{}
}

// Result is one backend release plus non-private diagnostics.
type Result struct {
	Estimate  float64 // the released, ε-DP answer
	WinnerTau float64 // winning/chosen τ (0 where the mechanism has none)
	Races     []core.Race
	Duration  time.Duration
}

// Backend is one selectable release mechanism.
type Backend interface {
	// Name returns the backend's stable name (the Options.Mechanism values).
	Name() string
	// Truncator reports which truncation operator Run needs.
	Truncator() TruncatorKind
	// Run releases one ε-DP estimate. tr must match Truncator() (nil for
	// TruncNone; a *truncation.NaiveTruncator for TruncNaive).
	Run(tr truncation.Truncator, p Params) (*Result, error)
}

// ByName returns the named backend. Valid names are MechR2T, MechLaplace,
// MechFixedTau and MechLS (MechAuto is a chooser directive, not a backend).
func ByName(name string) (Backend, bool) {
	switch name {
	case MechR2T:
		return r2tBackend{}, true
	case MechLaplace:
		return laplaceBackend{}, true
	case MechFixedTau:
		return fixedTauBackend{}, true
	case MechLS:
		return lsBackend{}, true
	}
	return nil, false
}

// r2tBackend races the full R2T mechanism (core.Run).
type r2tBackend struct{}

func (r2tBackend) Name() string             { return MechR2T }
func (r2tBackend) Truncator() TruncatorKind { return TruncLP }

func (r2tBackend) Run(tr truncation.Truncator, p Params) (*Result, error) {
	out, err := core.Run(tr, core.Config{
		Epsilon:   p.Epsilon,
		Beta:      p.Beta,
		GSQ:       p.GSQ,
		Noise:     p.Noise,
		EarlyStop: p.EarlyStop,
		Workers:   p.Workers,
		Interrupt: p.Interrupt,
		Recorder:  p.Rec,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Estimate:  out.Estimate,
		WinnerTau: out.WinnerTau,
		Races:     out.Races,
		Duration:  out.Duration,
	}, nil
}

// laplaceBackend is the textbook Laplace mechanism at the GS_Q promise.
type laplaceBackend struct{}

func (laplaceBackend) Name() string             { return MechLaplace }
func (laplaceBackend) Truncator() TruncatorKind { return TruncNone }

func (laplaceBackend) Run(_ truncation.Truncator, p Params) (*Result, error) {
	start := time.Now()
	stopNoise := p.Rec.Time(obs.StageNoise)
	noise := p.Noise.Laplace(p.GSQ / p.Epsilon)
	stopNoise()
	return &Result{
		Estimate: p.Answer + noise,
		Duration: time.Since(start),
	}, nil
}

// fixedTauBackend is the LP truncation mechanism with one fixed τ [22].
type fixedTauBackend struct{}

func (fixedTauBackend) Name() string             { return MechFixedTau }
func (fixedTauBackend) Truncator() TruncatorKind { return TruncLP }

func (fixedTauBackend) Run(tr truncation.Truncator, p Params) (*Result, error) {
	start := time.Now()
	tau := p.FixedTau
	if tau == 0 {
		tau = p.GSQ
	}
	if tau < 0 || tau > p.GSQ {
		return nil, fmt.Errorf("mech: fixed τ=%g outside (0, GS_Q=%g]", tau, p.GSQ)
	}
	stopLP := p.Rec.Time(obs.StageLPSolve)
	v, err := tr.Value(tau)
	stopLP()
	if err != nil {
		return nil, err
	}
	stopNoise := p.Rec.Time(obs.StageNoise)
	noise := p.Noise.Laplace(tau / p.Epsilon)
	stopNoise()
	return &Result{
		Estimate:  v + noise,
		WinnerTau: tau,
		Duration:  time.Since(start),
	}, nil
}

// lsBackend is the local-sensitivity SVT mechanism of Tao et al. [37].
type lsBackend struct{}

func (lsBackend) Name() string             { return MechLS }
func (lsBackend) Truncator() TruncatorKind { return TruncNaive }

func (lsBackend) Run(tr truncation.Truncator, p Params) (*Result, error) {
	nt, ok := tr.(*truncation.NaiveTruncator)
	if !ok {
		return nil, fmt.Errorf("mech: the ls mechanism needs naive truncation (self-join-free, projection-free queries only)")
	}
	start := time.Now()
	est, chosen, err := ls(nt, p.GSQ, p.Epsilon, p.Noise, p.Rec)
	if err != nil {
		return nil, err
	}
	return &Result{
		Estimate:  est,
		WinnerTau: chosen,
		Duration:  time.Since(start),
	}, nil
}

// NaiveLaplace releases answer + Lap(gsq/ε) — worst-case calibrated noise.
func NaiveLaplace(answer, gsq, eps float64, src dp.NoiseSource) float64 {
	return answer + src.Laplace(gsq/eps)
}

// LPFixedTau is the LP-based truncation mechanism with a fixed τ [22]:
// Q(I,τ) + Lap(τ/ε). Unlike R2T it spends the whole budget on one τ — and
// pays the full bias of that choice.
func LPFixedTau(tr *truncation.LPTruncator, tau, eps float64, src dp.NoiseSource) (float64, error) {
	v, err := tr.Value(tau)
	if err != nil {
		return 0, err
	}
	return v + src.Laplace(tau/eps), nil
}

// LS is the local-sensitivity based mechanism of Tao et al. [37] for
// self-join-free queries (Appendix A): it privatizes the query once at
// global-sensitivity scale, runs an SVT over geometrically increasing τ to
// find where naive truncation stops losing mass, and releases the truncated
// value with noise τ/ε. The budget is split ε/4 + ε/2 + ε/4.
func LS(nt *truncation.NaiveTruncator, gsq, eps float64, src dp.NoiseSource) (float64, error) {
	est, _, err := ls(nt, gsq, eps, src, nil)
	return est, err
}

// ls is the shared implementation behind LS and lsBackend: same draws in the
// same order, with the profiler threaded through the truncated evaluations
// (lp-solve stage — the operator's analogue of R2T's solve section) and the
// noise draws.
func ls(nt *truncation.NaiveTruncator, gsq, eps float64, src dp.NoiseSource, rec *obs.Recorder) (est, chosen float64, err error) {
	epsHat, epsSVT, epsOut := eps/4, eps/2, eps/4
	stopNoise := rec.Time(obs.StageNoise)
	qHat := nt.TrueAnswer() + src.Laplace(gsq/epsHat)
	stopNoise()
	chosen = gsq
	for tau := 1.0; tau <= gsq; tau *= 2 {
		stopLP := rec.Time(obs.StageLPSolve)
		v, verr := nt.Value(tau)
		stopLP()
		if verr != nil {
			return 0, 0, verr
		}
		// The Appendix A test: Q(I,τ) + Lap(2τ/ε) + Lap(4τ/ε) ≥ Q̂(I). The
		// statistic has sensitivity τ at level τ, so both noises scale with τ.
		stopNoise = rec.Time(obs.StageNoise)
		above := v+src.Laplace(2*tau/epsSVT)+src.Laplace(4*tau/epsSVT) >= qHat
		stopNoise()
		if above {
			chosen = tau
			break
		}
	}
	stopLP := rec.Time(obs.StageLPSolve)
	v, verr := nt.Value(chosen)
	stopLP()
	if verr != nil {
		return 0, 0, verr
	}
	stopNoise = rec.Time(obs.StageNoise)
	est = v + src.Laplace(chosen/epsOut)
	stopNoise()
	return est, chosen, nil
}
