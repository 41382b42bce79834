// Mergeable partition partials for sharded evaluation. A shard evaluates its
// slice of a partition-shaped query (every join result references at most one
// individual — the single-FK SJA shape behind PartitionTruncator) and ships a
// compact Partial: the positive per-individual totals S_j in ascending order,
// the free mass, and the exactness flags. Because the dataset is partitioned
// on the referenced primary key, each individual's join results all live on
// exactly one shard, so the union's {S_j} multiset is precisely the
// concatenation of the per-shard multisets and the union's free mass is the
// sum of the per-shard free masses. MergePartials therefore reconstructs the
// closed form
//
//	Q(I,τ) = Σ_j min(τ, S_j)  +  Σ_{free} ψ_k
//
// for the union of rows without ever shipping rows.
//
// Bit-equality contract: in the integer-exact regime (every ψ a non-negative
// integer, Σψ ≤ 2⁵², τ an integer ≤ 2⁵³ — see partition.go) every
// intermediate on every shard and in the merge is an exact float64 integer,
// so the merged operator's Value is bit-identical to the operator built from
// the unsharded union's occurrences — which is itself the merge of its one
// local part — and a core.Run over it releases the identical estimate for the
// same noise draws. Outside that regime the merge still computes the
// mathematically exact optimum (the R2T truncator properties hold, so privacy
// and utility are unaffected), but without the emulation payload the bits may
// differ from the single-node emulation path at the ulp level.
package truncation

import (
	"fmt"
	"math"
	"sort"
)

// Partial is one shard's contribution to a partition-shaped truncator,
// serializable for the router↔shard wire (JSON tags).
type Partial struct {
	// Sorted holds the shard's positive per-individual totals S_j ascending.
	Sorted []float64 `json:"sorted"`
	// Free is Σψ over the shard's variables in no capacity row.
	Free float64 `json:"free"`
	// Total is Σψ over the shard's ψ > 0 variables (the integer-regime bound).
	Total float64 `json:"total"`
	// IntExact reports that every shard-local intermediate was an exact
	// integer (all ψ integral and Total ≤ 2⁵²).
	IntExact bool `json:"int_exact"`
	// Answer is the shard's Q(I) contribution (its TrueAnswer).
	Answer float64 `json:"answer"`
	// TauStar is the shard's max per-individual sensitivity.
	TauStar float64 `json:"tau_star"`
	// NumResults counts the shard's join results with ψ > 0.
	NumResults int `json:"num_results"`
}

// Partial returns the operator in its mergeable form: what a shard ships and
// what MergePartials takes. Sorted aliases the operator's own (immutable)
// list; treat it as read-only.
func (t *PartitionTruncator) Partial() *Partial {
	return &Partial{
		Sorted:     t.sorted,
		Free:       t.free,
		Total:      t.total,
		IntExact:   t.intExact,
		Answer:     t.answer,
		TauStar:    t.tauStar,
		NumResults: t.numResults,
	}
}

// MergePartials combines per-shard partials into the union truncator (without
// an emulation payload: remote parts ship only per-individual totals).
// Because individuals are partitioned across shards, concatenating and
// re-sorting the per-shard lists reproduces the unsharded sorted {S_j}
// exactly, and the prefix sums — accumulated ascending, at the one site every
// PartitionTruncator is built — come out bit-identical in the integer-exact
// regime.
//
// Parts arrive off the wire from other nodes (or from a library caller), so
// the merge fails closed: a negative or non-finite field, or magnitudes whose
// sums overflow, would otherwise flow through prefix into a negative or ±Inf
// release.
func MergePartials(parts []*Partial) (*PartitionTruncator, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("truncation: no partials to merge")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("truncation: nil partial at index %d", i)
		}
		if p.NumResults < 0 {
			return nil, fmt.Errorf("truncation: partial %d: negative result count %d", i, p.NumResults)
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"free", p.Free}, {"total", p.Total}, {"answer", p.Answer}, {"tau_star", p.TauStar}} {
			if !validMass(f.v) {
				return nil, fmt.Errorf("truncation: partial %d: invalid %s %v (must be finite, ≥ 0)", i, f.name, f.v)
			}
		}
		for _, s := range p.Sorted {
			if !validMass(s) {
				return nil, fmt.Errorf("truncation: partial %d: invalid per-individual total %v (must be finite, ≥ 0)", i, s)
			}
		}
	}
	t := merge(parts)
	// Every term is ≥ 0, so free + the last prefix — Value at τ ≥ max S_j —
	// bounds every value the operator can return.
	if !validMass(t.answer) || !validMass(t.free+t.prefix[len(t.sorted)]) {
		return nil, fmt.Errorf("truncation: merged partials overflow float64")
	}
	return t, nil
}

// validMass reports whether v can be a sum of weights: finite and ≥ 0.
func validMass(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// merge builds the operator over the union of parts — the one place sorted,
// prefix and the regime flag are computed, for a local build (one part) and a
// router's gather alike.
func merge(parts []*Partial) *PartitionTruncator {
	t := &PartitionTruncator{intExact: true}
	n := 0
	for _, p := range parts {
		n += len(p.Sorted)
	}
	t.sorted = make([]float64, 0, n)
	for _, p := range parts {
		t.sorted = append(t.sorted, p.Sorted...)
		t.free += p.Free
		t.total += p.Total
		t.answer += p.Answer
		t.numResults += p.NumResults
		if p.TauStar > t.tauStar {
			t.tauStar = p.TauStar
		}
		if !p.IntExact {
			t.intExact = false
		}
	}
	if t.total > maxExactTotal {
		t.intExact = false
	}
	sort.Float64s(t.sorted)
	t.prefix = make([]float64, len(t.sorted)+1)
	for i, s := range t.sorted {
		t.prefix[i+1] = t.prefix[i] + s
	}
	return t
}
