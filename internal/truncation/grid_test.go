package truncation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"r2t/internal/lp"
)

// raceTaus covers core.Run's schedule — the power-of-two ladder — plus 0,
// fractional and repeated entries, in no particular order.
var raceTaus = []float64{64, 2, 0, 16, 2, 1, 0.5, 8, 4, 32, 1024}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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

// rowMultiset renders o's rows — ψ bits and raw ids — in sorted order, so two
// forms compare equal exactly when they hold the same rows under the same
// numbering, whatever their row order.
func rowMultiset(o *Occurrences) []string {
	out := make([]string, len(o.Rows))
	for k, row := range o.Rows {
		out[k] = fmt.Sprintf("%x %v", math.Float64bits(row.Psi), row.RefIDs)
	}
	sort.Strings(out)
	return out
}

func TestFromResultDeterministicUnderShuffle(t *testing.T) {
	// The executor numbers individuals canonically, never by encounter order:
	// the same edges inserted in another order — so the join meets rows and
	// individuals in another order — give the same universe and the same ids
	// for the same individuals.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n, edges := randomGraph(rng)
		shuffled := slices.Clone(edges)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			shuffled[i][0], shuffled[i][1] = shuffled[i][1], shuffled[i][0]
		})
		for _, src := range []string{edgeCountSQL, triangleSQL} {
			base := FromResult(runQuery(t, src, graphInstance(n, edges)))
			got := FromResult(runQuery(t, src, graphInstance(n, shuffled)))
			if !reflect.DeepEqual(got.Universe, base.Universe) {
				t.Fatalf("trial %d: universe %v != %v", trial, got.Universe, base.Universe)
			}
			if g, b := rowMultiset(got), rowMultiset(base); !reflect.DeepEqual(g, b) {
				t.Fatalf("trial %d: rows %v != %v — renaming depends on encounter order", trial, g, b)
			}
		}
	}
}

func TestFromResultSetsShareBacking(t *testing.T) {
	// The per-row sets are views of one backing array (the per-row allocation
	// was the hot path for large SJA results): consecutive rows must sit
	// contiguously in memory, and each set must be capped at its own length.
	// FromResult hands the executor's form over as is.
	res := runQuery(t, edgeCountSQL, graphInstance(5, [][2]int{{3, 1}, {1, 2}, {0, 2}, {4, 0}}))
	o := FromResult(res)
	if o != res || len(o.Rows) != 4 {
		t.Fatalf("FromResult copied the view or lost rows: %d rows", len(o.Rows))
	}
	for k, row := range o.Rows {
		if s := row.RefIDs; cap(s) != len(s) {
			t.Fatalf("set %d: cap %d > len %d (append could clobber the next row)", k, cap(s), len(s))
		}
	}
	for k := 1; k < len(o.Rows); k++ {
		prev, cur := o.Rows[k-1].RefIDs, o.Rows[k].RefIDs
		end := uintptr(unsafe.Pointer(&prev[len(prev)-1])) + unsafe.Sizeof(int32(0))
		if uintptr(unsafe.Pointer(&cur[0])) != end {
			t.Fatalf("rows %d and %d are not contiguous: sets do not share one backing array", k-1, k)
		}
	}
}
