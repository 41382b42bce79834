package core

import (
	"fmt"
	"strings"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/fault"
)

// flakyTruncator is a fakeTruncator whose Value fails or panics at chosen τ.
type flakyTruncator struct {
	fakeTruncator
	failAt  map[float64]bool
	panicAt map[float64]bool
}

func (f *flakyTruncator) Value(tau float64) (float64, error) {
	if f.panicAt[tau] {
		panic(fmt.Sprintf("synthetic panic at τ=%g", tau))
	}
	if f.failAt[tau] {
		return 0, fmt.Errorf("synthetic failure at τ=%g", tau)
	}
	return f.fakeTruncator.Value(tau)
}

// flakyGrid adds a Values method that fails as a unit, modeling a broken
// amortized pass over a healthy per-race path.
type flakyGrid struct {
	flakyTruncator
	gridErr error
}

func (g *flakyGrid) Values(taus []float64) ([]float64, error) {
	if g.gridErr != nil {
		return nil, g.gridErr
	}
	out := make([]float64, len(taus))
	for i, tau := range taus {
		v, err := g.Value(tau)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func faultCfg(workers int) Config {
	return Config{Epsilon: 1, Beta: 0.1, GSQ: 256, Noise: dp.ZeroNoise{}, Workers: workers}
}

// A failed race — or a grid pass that fails as a unit — fails the whole run:
// which races fail is data-dependent, so there is no release over the
// survivors (DESIGN.md §9d).
func TestRaceFailureFailsTheRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tr := &flakyTruncator{
			fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8},
			failAt:        map[float64]bool{8: true},
		}
		if _, err := Run(tr, faultCfg(workers)); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
			t.Fatalf("workers=%d: a race failure must fail the run, got %v", workers, err)
		}
	}
	broken := &flakyGrid{
		flakyTruncator: flakyTruncator{fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8}},
		gridErr:        fmt.Errorf("synthetic grid failure"),
	}
	if _, err := Run(broken, faultCfg(1)); err == nil {
		t.Fatal("a grid failure must fail the run")
	}
}

func TestPanicInRaceIsContained(t *testing.T) {
	tr := &flakyTruncator{
		fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8},
		panicAt:       map[float64]bool{16: true},
	}
	// The panic becomes an error, never an escaped panic — on the calling
	// goroutine and on the race workers alike.
	for _, workers := range []int{1, 4} {
		_, err := Run(tr, faultCfg(workers))
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: contained panic should surface as an error, got %v", workers, err)
		}
	}
}

func TestPanicOutsideRacesIsContained(t *testing.T) {
	// A panic in the noise source fires before any race runs; the whole-run
	// recover must convert it to an error.
	defer fault.Reset()
	fault.Enable("dp.laplace", fault.Rule{Panic: "noise source corrupted"})
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	cfg := faultCfg(1)
	cfg.Noise = dp.NewSource(1) // ZeroNoise bypasses the dp.laplace site
	_, err := Run(tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "panic during run") {
		t.Fatalf("want contained run panic, got %v", err)
	}
}

func TestCoreRaceFaultSite(t *testing.T) {
	// The core.race failpoint kills whichever race hits it, and with it the
	// run; once the fault clears the same run succeeds. (The rule fires on
	// every hit: a failed multi-worker Run in an earlier test may still be
	// draining races, and must not be able to use up a one-shot rule.)
	defer fault.Reset()
	fault.Enable("core.race", fault.Rule{})
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	if _, err := Run(tr, faultCfg(1)); err == nil {
		t.Fatal("an armed core.race site must fail the run")
	}
	fault.Reset()
	out, err := Run(tr, faultCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Races) != 8 {
		t.Fatalf("%d races after the fault cleared, want 8", len(out.Races))
	}
}
