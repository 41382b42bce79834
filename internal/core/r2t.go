// Package core implements R2T — Race-to-the-Top (Section 5, Algorithm 1) —
// the instance-optimal truncation mechanism. R2T races log2(GS_Q) truncated
// estimators Q(I,τ) at geometrically increasing τ, privatizes each with
// Laplace noise of scale log2(GS_Q)·τ/ε, shifts each down by its own noise
// tail bound, and releases the maximum. With the LP truncators of Sections
// 6–7 the released value is within O(log GS_Q · log log GS_Q)·DS_Q(I)/ε of the
// truth with probability 1−β (Theorem 5.1), which is instance-optimal for SJA
// queries.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"r2t/internal/dp"
	"r2t/internal/fault"
	"r2t/internal/lp"
	"r2t/internal/obs"
	"r2t/internal/truncation"
)

// The early-stop bounder tightens each race's dual bound for dualRounds rounds
// of dualItersPerRound iterations before giving up and solving the LP exactly.
const (
	dualRounds        = 8
	dualItersPerRound = 20
)

// Config parameterizes one R2T invocation.
type Config struct {
	Epsilon float64 // privacy budget ε (> 0, finite)
	Beta    float64 // failure probability β of the utility bound, in (0,1); 0 → 0.1
	GSQ     float64 // assumed global sensitivity bound (≥ 2, finite)

	Noise dp.NoiseSource // nil → a fresh CSPRNG-keyed source (dp.NewCryptoSource)

	// EarlyStop enables Algorithm 1's pruning: a race is killed as soon as a
	// dual upper bound proves it cannot beat the current best. It needs a
	// DualBounded truncator (the LP one); any other truncator answers every
	// race with Value. Pruning changes only speed, never the released bits.
	// Every production caller sets it; false is kept for Table 4's
	// "w/o early stop" row.
	EarlyStop bool

	// Interrupt, when non-nil, aborts the run between races once the channel
	// is closed (a context.Done() channel, typically): Run returns
	// ErrInterrupted without waiting for the remaining LPs. The noise for
	// every race is drawn before any race runs, so callers that charge a
	// privacy budget must treat an interrupted run as fully charged.
	Interrupt <-chan struct{}

	// Recorder, when non-nil, collects stage timings (noise draws, the race
	// section) and counters (early-stop prunes, LP work via the truncator).
	// Profiling is pure observation — it never alters the released estimate.
	Recorder *obs.Recorder
}

// fill validates c and applies its defaults. It agrees with the public
// Options.Validate: every check fails on NaN (for which all ordered
// comparisons are false) and on ±Inf, so no non-finite parameter reaches the
// noise scales or the τ grid.
func (c *Config) fill() error {
	if !finite(c.Epsilon) || c.Epsilon <= 0 {
		return fmt.Errorf("r2t: ε must be positive and finite, got %g", c.Epsilon)
	}
	if !finite(c.GSQ) || c.GSQ < 2 {
		return fmt.Errorf("r2t: GS_Q must be finite and at least 2, got %g", c.GSQ)
	}
	if !finite(c.Beta) || c.Beta < 0 || c.Beta >= 1 {
		return fmt.Errorf("r2t: β must be in (0,1), or 0 for the default, got %g", c.Beta)
	}
	if c.Beta == 0 {
		c.Beta = 0.1
	}
	if c.Noise == nil {
		// A predictable (e.g. clock-derived) seed would let an adversary
		// reconstruct the Laplace draws; default to the system CSPRNG.
		c.Noise = dp.NewCryptoSource()
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Race records one τ's fate, for diagnostics and the early-stop experiments.
type Race struct {
	Tau      float64
	Half     string  // "" for unsigned runs; "+"/"-" per half of a signed split
	Solved   bool    // the exact LP was solved
	Pruned   bool    // killed by a dual bound before an exact solve
	Value    float64 // exact Q(I,τ), when Solved
	Noisy    float64 // Q̃(I,τ) = Value + noise − penalty, when Solved
	Duration time.Duration
}

// Output is the result of one R2T run.
type Output struct {
	Estimate  float64 // the released, ε-DP answer
	WinnerTau float64 // τ of the winning race (0 if the floor Q(I,0) won)
	Races     []Race
	Duration  time.Duration
}

// ErrInterrupted is returned by Run when Config.Interrupt fires before every
// race has finished. The run's noise was already drawn; budget-charging
// callers must not refund ε for interrupted runs.
var ErrInterrupted = errors.New("r2t: run interrupted")

// DualBounded is implemented by truncators (the LP one) that can provide a
// monotonically tightening upper bound on Q(I,τ) — R2T's early-stop hook.
type DualBounded interface {
	truncation.Truncator
	Bounder(tau float64) *lp.DualBounder
}

// Run executes R2T over the truncated estimator tr.
//
// Privacy: each race's Q(I,τ^(j)) has global sensitivity ≤ τ^(j) (truncator
// property 1), so adding Lap(L·τ^(j)/ε) with L = log2(GS_Q) makes it
// (ε/L)-DP; basic composition over the L races gives ε-DP, and taking the
// max is post-processing. The penalty term is data-independent.
//
// Fault tolerance: Run never lets a panic escape — solver or noise-source
// panics are recovered and converted to errors, so a caller that charged a
// privacy budget before running stays on the safe side (charged but
// unanswered) instead of crashing with the charge's fate ambiguous. A failed
// race fails the whole run: which races fail is data-dependent, so a max over
// the survivors would be an un-noised signal outside the ε accounting
// (DESIGN.md §9d).
func Run(tr truncation.Truncator, cfg Config) (out *Output, err error) {
	// Whole-run panic containment: noise draws, the floor evaluation, and
	// anything else outside the per-race path. The per-race recover below
	// is tighter (it names the race); this is the backstop that guarantees
	// the no-escaping-panics contract.
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("r2t: panic during run (budget must be treated as charged): %v", p)
		}
	}()
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	start := time.Now()
	L := float64(dp.Log2Ceil(cfg.GSQ))
	penaltyFactor := L * math.Log(L/cfg.Beta) / cfg.Epsilon
	noiseScaleFactor := L / cfg.Epsilon

	// Q(I,0) is the floor of the max (always 0 for the operators in this
	// repository, but ask the truncator to stay faithful to eq. 8).
	floor, floorErr := tr.Value(0)
	if floorErr != nil {
		return nil, floorErr
	}
	out = &Output{Estimate: floor, WinnerTau: 0}

	// Noise is drawn up front (as in Algorithm 1) so pruning decisions can
	// be made before the corresponding LP is solved.
	stopNoise := cfg.Recorder.Time(obs.StageNoise)
	taus := dp.TauGrid(cfg.GSQ) // {2¹..2^L}; shared with the mechanism portfolio
	n := len(taus)
	noise := make([]float64, n)
	for j := range taus {
		noise[j] = cfg.Noise.Laplace(noiseScaleFactor * taus[j])
	}
	stopNoise()

	bounded, canBound := tr.(DualBounded)
	useEarly := cfg.EarlyStop && canBound
	best, winner := out.Estimate, out.WinnerTau
	races := make([]Race, 0, n)

	// runRace executes one race: tighten dual bounds until pruned or solve
	// the LP exactly. Returns the first hard error; it is also the fault
	// boundary around the race — a panic in the solver (or the truncator)
	// becomes that race's error.
	runRace := func(j int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("r2t: race τ=%g panicked: %v", taus[j], p)
			}
		}()
		select {
		case <-cfg.Interrupt: // never fires when Interrupt is nil
			return ErrInterrupted
		default:
		}
		if err := fault.Check("core.race"); err != nil {
			return err
		}
		tau := taus[j]
		shift := noise[j] - penaltyFactor*tau
		raceStart := time.Now()
		race := Race{Tau: tau}
		if useEarly {
			b := bounded.Bounder(tau)
			// Cheap bounds first: the y = 0 bound comes with the bounder and
			// the uniform-λ bound is round 0's first step, so trying them
			// before paying for subgradient steps only stops earlier on the
			// same sequence. Bounds never rise and a race cannot move best
			// before it is solved, so every decision equals checking after
			// the full round.
			pruned := b.Bound()+shift <= best || b.Tighten(1)+shift <= best
			steps := 0
			prev := math.Inf(1)
			for round := 0; !pruned && round < dualRounds; round++ {
				iters := dualItersPerRound
				if round == 0 {
					iters-- // the uniform step above was round 0's first
				}
				bound := b.Tighten(iters)
				steps += iters
				if bound+shift <= best {
					pruned = true
					break
				}
				// The bound has plateaued without proving a prune: further
				// subgradient rounds are wasted — solve exactly instead.
				// (This keeps early stop from slowing down the easy LPs,
				// where solving costs less than bounding.)
				if bound > prev*0.999 {
					break
				}
				prev = bound
			}
			cfg.Recorder.Add(obs.CtrDualSteps, int64(steps))
			if pruned {
				cfg.Recorder.Add(obs.CtrEarlyStopPrune, 1)
				race.Pruned = true
				race.Duration = time.Since(raceStart)
				races = append(races, race)
				return nil
			}
		}
		v, err := tr.Value(tau)
		if err != nil {
			return err
		}
		race.Solved = true
		race.Value = v
		race.Noisy = v + shift
		race.Duration = time.Since(raceStart)
		races = append(races, race)
		if race.Noisy > best {
			best, winner = race.Noisy, tau
		}
		return nil
	}

	// Largest τ first: those LPs tend to solve fastest (their capacity rows
	// are mostly redundant), and a strong early best prunes the rest. The
	// best moves only on a strict increase, so the release equals the
	// max over every race solved exactly: pruning changes only speed.
	stopLP := cfg.Recorder.Time(obs.StageLPSolve)
	for j := n - 1; j >= 0; j-- {
		if err := runRace(j); err != nil {
			return nil, err
		}
	}
	stopLP()

	out.Races = races
	out.Estimate = best
	out.WinnerTau = winner
	out.Duration = time.Since(start)
	return out, nil
}

// ErrorBound returns the Theorem 5.1 bound: with probability ≥ 1−β,
// Q(I) − 4·log2(GS_Q)·ln(log2(GS_Q)/β)·τ*(I)/ε ≤ Q̃(I) ≤ Q(I).
func ErrorBound(cfg Config, tauStar float64) float64 {
	if cfg.Beta == 0 {
		cfg.Beta = 0.1
	}
	L := float64(dp.Log2Ceil(cfg.GSQ))
	return 4 * L * math.Log(L/cfg.Beta) * tauStar / cfg.Epsilon
}
