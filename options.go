package r2t

import (
	"fmt"

	"r2t/internal/mech"
)

// Options configures one private query evaluation.
type Options struct {
	// Epsilon is the privacy budget ε (> 0). Required.
	Epsilon float64
	// GSQ is the assumed bound on the query's global sensitivity — the most
	// any one individual may contribute (Section 4). Required, ≥ 2. R2T's
	// error grows only logarithmically in GSQ, so be conservative.
	GSQ float64
	// Primary names the primary private relations (each must have a primary
	// key). Required.
	Primary []string
	// Beta is the failure probability of the utility guarantee (default 0.1).
	// It does not affect privacy.
	Beta float64
	// Noise overrides the noise source (default: a fresh source keyed from
	// the system CSPRNG — see dp.NewCryptoSource).
	Noise NoiseSource
	// EarlyStop enables the dual-bound race pruning of Algorithm 1.
	EarlyStop bool
	// Naive forces naive truncation instead of the LP operator. Only valid
	// for self-join-free queries without projection; Query fails otherwise.
	// The LP operator (default) is valid for all SPJA queries.
	Naive bool
	// Workers solves races concurrently (default 1; negative = GOMAXPROCS).
	// The released estimate is unchanged; only wall time.
	Workers int
	// ExecWorkers bounds the join executor's probe worker pool (default 0 =
	// GOMAXPROCS; 1 runs fully serial). Join results — row order included —
	// and therefore every released answer are bit-identical for every
	// setting; only wall time changes.
	ExecWorkers int
	// AllowNegativeSum lifts the paper's ψ ≥ 0 requirement for SUM queries:
	// the query is split into Q⁺ − Q⁻ (each with non-negative weights), each
	// half runs R2T with ε/2, and the difference is released. GSQ then bounds
	// an individual's contribution to *either* half.
	AllowNegativeSum bool
	// Profile collects a per-stage breakdown of where the evaluation spent
	// its time (parse, plan, exec, truncation build, LP solving, noise) plus
	// work counters, surfaced as Answer.Profile. Profiling is pure
	// observation — the released estimate is bit-identical with it on or off
	// — but the profile itself is a data-dependent, NON-PRIVATE diagnostic:
	// treat it like Answer.TrueAnswer and never release it (DESIGN.md §11).
	Profile bool
	// Mechanism selects the release mechanism: "" or "r2t" (the default,
	// instance-optimal for every SPJA query), "laplace" (textbook Laplace at
	// GS_Q — unbiased, cheapest, worst-case noise), "fixed-tau" (LP
	// truncation at one fixed τ [22]), "ls" (the local-sensitivity SVT
	// mechanism [37]; self-join-free, projection-free queries only), or
	// "auto" (a data-independent chooser picks the cheapest backend whose
	// a-priori error bound meets ErrorTarget, falling back to r2t — see
	// DESIGN.md §15). An explicitly named mechanism that does not apply to
	// the query's structure fails the query before any evaluation (and, for
	// budget-charging callers, before any ε charge).
	Mechanism string
	// ErrorTarget (Mechanism "auto" only) is the largest acceptable a-priori
	// (1−β)-probability absolute error. 0 means no target: auto then always
	// selects r2t. The chooser compares the target against data-independent
	// worst-case bounds — r2t's instance error is typically far smaller.
	ErrorTarget float64
	// FixedTau (Mechanism "fixed-tau" only) is the truncation threshold; 0
	// means GS_Q. Must lie in (0, GSQ].
	FixedTau float64
}

// Validate checks the parameter invariants the mechanism will enforce,
// without evaluating anything. It is the single authority on what makes
// Options well-formed: the prepare stage, which every entry point and the
// r2td server go through before any budget charge, runs it first. (The
// mechanism core re-checks defensively; both sides must agree.)
func (opt Options) Validate() error {
	// Every numeric check is written to fail on NaN (for which all ordered
	// comparisons are false) and ±Inf: a non-finite ε would poison the budget
	// arithmetic and admit every later charge.
	if !isFinite(opt.Epsilon) || opt.Epsilon <= 0 {
		return fmt.Errorf("r2t: ε must be positive and finite, got %g", opt.Epsilon)
	}
	if !isFinite(opt.GSQ) || opt.GSQ < 2 {
		return fmt.Errorf("r2t: GS_Q must be finite and at least 2, got %g", opt.GSQ)
	}
	if !isFinite(opt.Beta) || opt.Beta < 0 || opt.Beta >= 1 {
		return fmt.Errorf("r2t: β must be in (0,1), or 0 for the default, got %g", opt.Beta)
	}
	if opt.Naive && opt.AllowNegativeSum {
		return fmt.Errorf("r2t: Naive and AllowNegativeSum are mutually exclusive (the signed split requires the LP operator)")
	}
	if len(opt.Primary) == 0 {
		return fmt.Errorf("r2t: at least one primary private relation is required")
	}
	if !mech.ValidMechanism(opt.Mechanism) {
		return fmt.Errorf("r2t: unknown mechanism %q (want auto, r2t, laplace, fixed-tau or ls)", opt.Mechanism)
	}
	if opt.Naive && opt.Mechanism != "" && opt.Mechanism != mech.MechR2T {
		return fmt.Errorf("r2t: Naive applies to the r2t mechanism only, not %q", opt.Mechanism)
	}
	if !isFinite(opt.ErrorTarget) || opt.ErrorTarget < 0 {
		return fmt.Errorf("r2t: ErrorTarget must be finite and non-negative, got %g", opt.ErrorTarget)
	}
	if opt.ErrorTarget > 0 && opt.Mechanism != mech.MechAuto {
		return fmt.Errorf("r2t: ErrorTarget requires Mechanism \"auto\" (got %q)", opt.Mechanism)
	}
	if opt.FixedTau != 0 {
		if opt.Mechanism != mech.MechFixedTau {
			return fmt.Errorf("r2t: FixedTau requires Mechanism \"fixed-tau\" (got %q)", opt.Mechanism)
		}
		if !isFinite(opt.FixedTau) || opt.FixedTau < 0 || opt.FixedTau > opt.GSQ {
			return fmt.Errorf("r2t: FixedTau %g outside (0, GSQ=%g]", opt.FixedTau, opt.GSQ)
		}
	}
	return nil
}
