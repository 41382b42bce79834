package truncation

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"r2t/internal/exec"
	"r2t/internal/lp"
	"r2t/internal/value"
)

// raceTaus mirrors core.Run's schedule: the power-of-two ladder, plus 0 and
// repeated/unsorted entries to exercise the scheduling bookkeeping.
var raceTaus = []float64{64, 2, 0, 16, 2, 1, 0.5, 8, 4, 32, 1024}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestValuesBitIdenticalToValue(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		tr := NewLPFromOccurrences(randomOccurrences(rng))
		vs, err := tr.Values(raceTaus)
		if err != nil {
			t.Fatalf("trial %d: Values: %v", trial, err)
		}
		for i, tau := range raceTaus {
			v, err := tr.Value(tau)
			if err != nil {
				t.Fatalf("trial %d τ=%g: Value: %v", trial, tau, err)
			}
			if !bitsEq(vs[i], v) {
				t.Fatalf("trial %d τ=%g: Values %v != Value %v", trial, tau, vs[i], v)
			}
		}
	}
}

func TestValueBitIdenticalToLegacySolve(t *testing.T) {
	// The grid-backed Value must reproduce what the pre-grid implementation
	// computed: lp.Solve on the materialized per-τ problem.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		tr := NewLPFromOccurrences(randomOccurrences(rng))
		for _, tau := range raceTaus {
			if tau == 0 {
				continue
			}
			sol, err := lp.Solve(tr.problem(tau), lp.Options{})
			if err != nil {
				t.Fatalf("trial %d τ=%g: %v", trial, tau, err)
			}
			v, err := tr.Value(tau)
			if err != nil {
				t.Fatalf("trial %d τ=%g: %v", trial, tau, err)
			}
			if !bitsEq(v, sol.Objective) {
				t.Fatalf("trial %d τ=%g: grid %v != legacy %v", trial, tau, v, sol.Objective)
			}
		}
	}
}

func TestValuesRejectsNegativeTau(t *testing.T) {
	tr := NewLPFromOccurrences(randomOccurrences(rand.New(rand.NewSource(1))))
	if _, err := tr.Values([]float64{1, -2}); err == nil {
		t.Fatal("expected error for negative τ in schedule")
	}
}

func TestBounderBitIdenticalToLegacy(t *testing.T) {
	// The skeleton-sharing Bounder must reproduce the bound sequence of a
	// bounder built on the materialized problem — core.Run's early-stop
	// pruning decisions hang off these exact values.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		tr := NewLPFromOccurrences(randomOccurrences(rng))
		for _, tau := range []float64{0.5, 2, 16, 256} {
			legacy := lp.NewDualBounder(tr.problem(tau))
			grid := tr.Bounder(tau)
			if !bitsEq(legacy.Bound(), grid.Bound()) {
				t.Fatalf("trial %d τ=%g: initial bound differs", trial, tau)
			}
			for step := 0; step < 6; step++ {
				a, b := legacy.Tighten(4), grid.Tighten(4)
				if !bitsEq(a, b) {
					t.Fatalf("trial %d τ=%g step %d: %v != %v", trial, tau, step, b, a)
				}
			}
		}
	}
}

// refRow describes one join result by its ψ and resolved individuals.
type refRow struct {
	Psi  float64
	Refs []exec.TupleRef
}

// refResult builds an exec.Result from (ψ, individual-name) rows, interning
// the refs in encounter order the way the executor does.
func refResult(rows []refRow) *exec.Result {
	res := &exec.Result{}
	ids := make(map[exec.TupleRef]int32)
	for _, r := range rows {
		jr := exec.JoinRow{Psi: r.Psi}
		for _, ref := range r.Refs {
			id, ok := ids[ref]
			if !ok {
				id = int32(len(res.Universe))
				ids[ref] = id
				res.Universe = append(res.Universe, ref)
			}
			jr.RefIDs = append(jr.RefIDs, id)
		}
		res.Rows = append(res.Rows, jr)
	}
	return res
}

func TestFromResultDeterministicUnderShuffle(t *testing.T) {
	// The TupleRef → dense id renaming must not depend on encounter order:
	// shuffling the result rows yields the same ids for the same individuals.
	rng := rand.New(rand.NewSource(61))
	ref := func(rel string, key int64) exec.TupleRef {
		return exec.TupleRef{Rel: rel, Key: value.IntV(key)}
	}
	for trial := 0; trial < 25; trial++ {
		nRows := 1 + rng.Intn(40)
		rows := make([]refRow, nRows)
		for k := range rows {
			nRefs := 1 + rng.Intn(4)
			refs := make([]exec.TupleRef, nRefs)
			for i := range refs {
				rel := "Node"
				if rng.Intn(3) == 0 {
					rel = "User"
				}
				refs[i] = ref(rel, int64(rng.Intn(12)))
			}
			rows[k] = refRow{Psi: float64(1 + rng.Intn(4)), Refs: refs}
		}
		base := FromResult(refResult(rows))

		perm := rng.Perm(nRows)
		shuffled := make([]refRow, nRows)
		for i, p := range perm {
			shuffled[i] = rows[p]
		}
		got := FromResult(refResult(shuffled))

		if got.NumIndividuals != base.NumIndividuals {
			t.Fatalf("trial %d: individuals %d != %d", trial, got.NumIndividuals, base.NumIndividuals)
		}
		for i, p := range perm {
			if got.Psi[i] != base.Psi[p] {
				t.Fatalf("trial %d: ψ mismatch at row %d", trial, i)
			}
			if len(got.Sets[i]) != len(base.Sets[p]) {
				t.Fatalf("trial %d: set size mismatch at row %d", trial, i)
			}
			for j := range got.Sets[i] {
				if got.Sets[i][j] != base.Sets[p][j] {
					t.Fatalf("trial %d row %d: id %d != %d — renaming depends on encounter order",
						trial, i, got.Sets[i][j], base.Sets[p][j])
				}
			}
		}
	}
}

func TestFromResultSetsShareBacking(t *testing.T) {
	// The per-row sets are views of one backing array (the per-row allocation
	// was the hot path for large SJA results): consecutive rows must sit
	// contiguously in memory, and each set must be capped at its own length.
	ref := func(key int64) exec.TupleRef {
		return exec.TupleRef{Rel: "Node", Key: value.IntV(key)}
	}
	res := refResult([]refRow{
		{Psi: 1, Refs: []exec.TupleRef{ref(3), ref(1)}},
		{Psi: 1, Refs: []exec.TupleRef{ref(2)}},
		{Psi: 1, Refs: []exec.TupleRef{ref(1), ref(0), ref(2)}},
	})
	o := FromResult(res)
	for k, s := range o.Sets {
		if cap(s) != len(s) {
			t.Fatalf("set %d: cap %d > len %d (append could clobber the next row)", k, cap(s), len(s))
		}
	}
	for k := 1; k < len(o.Sets); k++ {
		prev, cur := o.Sets[k-1], o.Sets[k]
		end := uintptr(unsafe.Pointer(&prev[len(prev)-1])) + unsafe.Sizeof(int32(0))
		if uintptr(unsafe.Pointer(&cur[0])) != end {
			t.Fatalf("rows %d and %d are not contiguous: sets do not share one backing array", k-1, k)
		}
	}
}
