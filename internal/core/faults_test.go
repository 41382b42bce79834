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

func faultCfg() Config {
	return Config{Epsilon: 1, Beta: 0.1, GSQ: 256, Noise: dp.ZeroNoise{}}
}

// A failed race fails the whole run: which races fail is data-dependent, so
// there is no release over the survivors (DESIGN.md §9d).
func TestRaceFailureFailsTheRun(t *testing.T) {
	tr := &flakyTruncator{
		fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8},
		failAt:        map[float64]bool{8: true},
	}
	if _, err := Run(tr, faultCfg()); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("a race failure must fail the run, got %v", err)
	}
}

func TestPanicInRaceIsContained(t *testing.T) {
	tr := &flakyTruncator{
		fakeTruncator: fakeTruncator{answer: 1000, tauStar: 8},
		panicAt:       map[float64]bool{16: true},
	}
	// The panic becomes an error, never an escaped panic.
	_, err := Run(tr, faultCfg())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("contained panic should surface as an error, got %v", err)
	}
}

func TestPanicOutsideRacesIsContained(t *testing.T) {
	// A panic in the noise source fires before any race runs; the whole-run
	// recover must convert it to an error.
	defer fault.Reset()
	fault.Enable("dp.laplace", fault.Rule{Panic: "noise source corrupted"})
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	cfg := faultCfg()
	cfg.Noise = dp.NewSource(1) // ZeroNoise bypasses the dp.laplace site
	_, err := Run(tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "panic during run") {
		t.Fatalf("want contained run panic, got %v", err)
	}
}

func TestCoreRaceFaultSite(t *testing.T) {
	// The core.race failpoint kills whichever race hits it, and with it the
	// run; once the fault clears the same run succeeds.
	defer fault.Reset()
	fault.Enable("core.race", fault.Rule{})
	tr := &fakeTruncator{answer: 1000, tauStar: 8}
	if _, err := Run(tr, faultCfg()); err == nil {
		t.Fatal("an armed core.race site must fail the run")
	}
	fault.Reset()
	out, err := Run(tr, faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Races) != 8 {
		t.Fatalf("%d races after the fault cleared, want 8", len(out.Races))
	}
}
