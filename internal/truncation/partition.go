// The partition fast path. When every join result's provenance names at most
// one individual — the single-FK SJA shape: TPC-H SUMs keyed on one private
// relation, graph edge counts under edge-DP — the truncation LP's capacity
// rows partition the variables, each row is its own single-constraint
// component, and the optimum is available in closed form:
//
//	Q(I,τ) = Σ_j min(τ, S_j)  +  Σ_{free} ψ_k
//
// where S_j is individual j's total weight and the free term covers variables
// in no capacity row. PartitionTruncator detects this shape from the
// occurrence sets and answers every Value(τ) without touching the LP
// machinery — the entire τ grid for roughly the cost of one sort.
//
// The released values must be BIT-IDENTICAL to the simplex pipeline (the
// engine swaps this operator in silently, exactly like the join-share cache,
// so the swap must be invisible in every released bit). Floating-point
// addition is not associative, so Σ_j min(τ,S_j) evaluated in sorted-owner
// order does not in general equal lp.Problem.Value's variable-order
// accumulation. Two regimes restore exactness:
//
//   - Integer-exact mode (O(log n) per τ): when every ψ is a non-negative
//     integer with Σψ ≤ 2⁵², and τ is an integer ≤ 2⁵³, every intermediate of
//     BOTH computations — greedy capacities, partial takes, objective partial
//     sums — is an integer of magnitude ≤ 2⁵³ and therefore exact in float64.
//     Both paths then produce the same mathematical integer, hence the same
//     bits, and the sorted-prefix-sum formula may answer directly. This
//     covers COUNT(*) (ψ = 1), edge-DP graph counts, and integral TPC-H SUMs;
//     the τ grid {2^j} is always integral for GS_Q promises below 2⁵³.
//
//   - Emulation mode (O(n) per τ): for arbitrary ψ or fractional τ, Value
//     replays lp's exact arithmetic operation for operation: each owner's row
//     solves by knapsackWS's greedy rule (items in ascending variable order —
//     all ratios are c/a = 1 — full takes of ub, one partial take of cap/a,
//     then zeros), and the objective accumulates Σ C[k]·x[k] in global
//     variable order exactly as lp.Problem.Value does. Every float operation
//     matches (a = C = 1, so ·1.0 and /1.0 are bitwise identities), so the
//     result is bit-identical for ANY inputs — still orders of magnitude
//     cheaper than presolve + components + simplex.
//
// Redundancy decisions use the same predicate as both LP pipelines
// (τ ≥ Σ_row ψ with the row sum accumulated in ascending variable order), so
// the branch structure agrees with lp.GridSolver's τ-monotone classification
// and lp.Solve's presolve on every input.
//
// Which truncator is built depends on the private data (the provenance
// sets), but — exactly as for the join-share cache (DESIGN.md §12) — the
// choice is invisible in every released value, so it cannot leak: the
// mechanism output distribution is identical on both paths.
package truncation

import (
	"fmt"
	"math"
	"sort"

	"r2t/internal/obs"
)

// maxExactTotal bounds Σψ for the integer-exact regime. 2⁵² leaves a factor-2
// margin below float64's 2⁵³ exact-integer limit, so the Σψ validity check
// itself cannot be fooled by rounding.
const maxExactTotal = 1 << 52

// maxExactTau bounds τ for the integer-exact regime: integers up to 2⁵³ are
// exactly representable, and τ·|{S_j > τ}| ≤ Σψ keeps every product exact.
const maxExactTau = 1 << 53

// PartitionTruncator is the closed-form Q(I,τ) for queries whose capacity
// rows partition the LP variables — the one operator behind both a local
// evaluation and a router's merge of shard partials (MergePartials; local is
// the 1-shard merge). It implements the same Truncator (and grid) surface as
// LPTruncator and, built from occurrences, is bit-identical to it everywhere.
type PartitionTruncator struct {
	sorted []float64 // the positive S_j ascending, over every merged part
	prefix []float64 // prefix[i] = Σ sorted[:i]
	free   float64   // Σψ over variables in no capacity row (at ub for every τ > 0)
	total  float64   // Σψ over all variables: the integer-exact regime's bound

	intExact bool // integer-exact regime applies (see package comment)

	answer     float64
	tauStar    float64
	numResults int // LP variables: join results with ψ > 0

	// Emulation payload, what valueEmulate replays. Present when built from
	// occurrences; nil when merged from remote partials, which ship only the
	// per-individual totals.
	psi   []float64 // ψ per LP variable, original order
	owner []int32   // per LP variable: owning individual, -1 = in no capacity row
	sum   []float64 // per individual: S_j, accumulated in ascending variable order

	rec *obs.Recorder
}

// NewPartitionFromOccurrences returns the closed-form truncator when the
// capacity rows partition the variables — every occurrence with ψ > 0
// references at most one individual and carries a finite weight — and nil
// when the general LP operator is needed. It is the package's one scan that
// classifies occurrences as partition-shaped: O(n), then a merge of the one
// local part, with the emulation payload attached.
func NewPartitionFromOccurrences(o *Occurrences) *PartitionTruncator {
	if o.Groups != nil {
		return nil // SPJA group rows couple variables across individuals
	}
	p := &Partial{IntExact: true}
	psi := make([]float64, 0, len(o.Rows))
	owner := make([]int32, 0, len(o.Rows))
	sum := make([]float64, len(o.Universe))
	for _, row := range o.Rows {
		w, set := row.Psi, row.RefIDs
		if w <= 0 {
			continue // dropped by the LP build; not a variable
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil // leave invalid weights to the LP's validation errors
		}
		if len(set) > 1 {
			return nil // shared provenance: rows genuinely overlap
		}
		j := int32(-1)
		if len(set) == 1 {
			j = set[0]
			// Ascending-k accumulation: the same addition sequence as the LP
			// row sums (Σ 1.0·ψ in row order), so the redundancy predicate
			// compares identical bits.
			sum[j] += w
		} else {
			p.Free += w
		}
		psi = append(psi, w)
		owner = append(owner, j)
		if w != math.Trunc(w) {
			p.IntExact = false
		}
		p.Total += w
	}
	// Q(I) and τ* over the variables, as the LP operator takes them.
	p.Answer, p.NumResults = p.Total, len(psi)
	for _, s := range sum {
		if s > 0 {
			p.Sorted = append(p.Sorted, s) // merge sorts
			p.TauStar = max(p.TauStar, s)
		}
	}
	t := merge([]*Partial{p})
	t.psi, t.owner, t.sum = psi, owner, sum
	return t
}

// Value returns Q(I,τ). Built from occurrences it is bit-identical to
// LPTruncator.Value on them: the sorted-prefix formula in the integer-exact
// regime, the emulation otherwise. Merged from remote partials there is no
// payload to emulate over and the formula answers at every τ — the same bits
// in the integer-exact regime, the mathematically exact optimum up to float
// reassociation outside it (partial.go). Safe for concurrent use (the struct
// is immutable after build).
func (t *PartitionTruncator) Value(tau float64) (float64, error) {
	if tau < 0 {
		return 0, fmt.Errorf("truncation: negative τ %g", tau)
	}
	if tau == 0 {
		return 0, nil // every variable is capped to zero by its capacity rows
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		// The LP path rejects these in lp.validTau; stay behaviorally equal.
		return 0, fmt.Errorf("truncation: invalid τ %v (must be finite, ≥ 0)", tau)
	}
	t.rec.Add(obs.CtrPartitionValues, 1)
	if t.psi != nil && !(t.intExact && tau == math.Trunc(tau) && tau <= maxExactTau) {
		return t.valueEmulate(tau), nil
	}
	return t.valueSorted(tau), nil
}

// valueSorted is the O(log n) integer-exact formula: with every intermediate
// on both paths an exact integer, Σ_j min(τ,S_j) in any summation order
// equals the LP objective bit for bit.
func (t *PartitionTruncator) valueSorted(tau float64) float64 {
	// First index with S_j > τ (SearchFloat64s finds the first ≥ next(τ)).
	i := sort.SearchFloat64s(t.sorted, math.Nextafter(tau, math.Inf(1)))
	capped := float64(len(t.sorted) - i)
	return t.free + t.prefix[i] + tau*capped
}

// valueEmulate replays the LP pipeline's arithmetic operation for operation
// (see the package comment), so the result is bit-identical for arbitrary ψ
// and τ. O(n) per call.
func (t *PartitionTruncator) valueEmulate(tau float64) float64 {
	// Remaining greedy capacity per owner; owners with S_j ≤ τ are redundant
	// rows whose variables sit at their upper bounds and never read this.
	capRem := make([]float64, len(t.sum))
	for j := range capRem {
		capRem[j] = tau
	}
	obj := 0.0
	for v, w := range t.psi {
		j := t.owner[v]
		var x float64
		switch {
		case j < 0:
			x = w // in no capacity row: fixed at ub at every τ > 0
		case tau >= t.sum[j]:
			x = w // row redundant at this τ: the whole block sits at ub
		default:
			// knapsackWS on the owner's single row, one item at a time. All
			// ratios are 1, so items run in ascending variable order — the
			// order this loop already visits them in. a = 1.0 makes take·a
			// and cap/a bitwise identities.
			c := capRem[j]
			if c > 0 {
				take, need := w, w
				if need > c {
					take, need = c, c
				}
				x = take
				capRem[j] = c - need
			}
		}
		// Problem.Value accumulates Σ C[k]·x[k] in this same global variable
		// order with C[k] = 1; adding x directly is the identical operation.
		obj += x
	}
	return obj
}

// Values evaluates a whole τ schedule; each entry is bit-identical to the
// corresponding Value call (and hence to the LP grid pass). core.Run routes
// the full race grid through this.
func (t *PartitionTruncator) Values(taus []float64) ([]float64, error) {
	out := make([]float64, len(taus))
	for i, tau := range taus {
		v, err := t.Value(tau)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// TrueAnswer returns Q(I).
func (t *PartitionTruncator) TrueAnswer() float64 { return t.answer }

// TauStar returns DS_Q(I), computed exactly as the LP truncator computes it
// (merged: the max over the parts, since individuals partition across shards).
func (t *PartitionTruncator) TauStar() float64 { return t.tauStar }

// SetRecorder attaches a profiler counting Value evaluations served by the
// fast path. Must be set before concurrent Value callers start.
func (t *PartitionTruncator) SetRecorder(rec *obs.Recorder) { t.rec = rec }

var _ Truncator = (*PartitionTruncator)(nil)
