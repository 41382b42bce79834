package truncation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// splitByOwner partitions an occurrence instance across k shards by hashing
// the owning individual, renaming individuals densely per shard (ascending,
// mirroring the executor's canonical numbering). Free rows (no individual) go
// to shard 0 — any placement is valid, the free mass just sums.
func splitByOwner(o *Occurrences, k int) []*Occurrences {
	owner := func(j int32) int { return int((uint32(j) * 2654435761) % uint32(k)) }
	sets := make([][][]int32, k)
	psi := make([][]float64, k)
	renames := make([]map[int32]int32, k)
	for s := range renames {
		renames[s] = make(map[int32]int32)
	}
	// Dense per-shard individual ids, assigned in ascending global order so
	// the per-shard order matches the executor's canonical one.
	for j := range o.Universe {
		s := owner(int32(j))
		renames[s][int32(j)] = int32(len(renames[s]))
	}
	for _, row := range o.Rows {
		s := 0
		var renamed []int32
		if len(row.RefIDs) == 1 {
			s = owner(row.RefIDs[0])
			renamed = []int32{renames[s][row.RefIDs[0]]}
		}
		sets[s] = append(sets[s], renamed)
		psi[s] = append(psi[s], row.Psi)
	}
	shards := make([]*Occurrences, k)
	for s := range shards {
		shards[s] = occurrences(len(renames[s]), sets[s], psi[s])
	}
	return shards
}

func randomPartitionInstance(rng *rand.Rand, integral bool) *Occurrences {
	n := 1 + rng.Intn(40)
	rows := rng.Intn(300)
	var sets [][]int32
	var psi []float64
	for k := 0; k < rows; k++ {
		var set []int32
		if rng.Float64() < 0.9 {
			set = []int32{int32(rng.Intn(n))}
		}
		var w float64
		if integral {
			w = float64(rng.Intn(12)) // includes ψ = 0 rows (dropped as variables)
		} else {
			w = rng.Float64() * 10
		}
		sets = append(sets, set)
		psi = append(psi, w)
	}
	return occurrences(n, sets, psi)
}

// partialOf is what a shard ships for its slice: the one occurrence scan, then
// the operator's mergeable form.
func partialOf(t *testing.T, o *Occurrences) *Partial {
	t.Helper()
	pt := NewPartitionFromOccurrences(o)
	if pt == nil {
		t.Fatal("shard slice unexpectedly not partition-shaped")
	}
	return pt.Partial()
}

// requireBitIdentical asserts got and want agree bit for bit on TrueAnswer,
// TauStar and Value over taus.
func requireBitIdentical(t *testing.T, label string, got, want *PartitionTruncator, taus []float64) {
	t.Helper()
	if !bitEqual(got.TrueAnswer(), want.TrueAnswer()) {
		t.Fatalf("%s: TrueAnswer %v != %v", label, got.TrueAnswer(), want.TrueAnswer())
	}
	if !bitEqual(got.TauStar(), want.TauStar()) {
		t.Fatalf("%s: TauStar %v != %v", label, got.TauStar(), want.TauStar())
	}
	for _, tau := range taus {
		g, err := got.Value(tau)
		if err != nil {
			t.Fatalf("%s: Value(%g): %v", label, tau, err)
		}
		w, err := want.Value(tau)
		if err != nil {
			t.Fatalf("%s: reference Value(%g): %v", label, tau, err)
		}
		if !bitEqual(g, w) {
			t.Fatalf("%s τ=%g: Value %v != reference %v", label, tau, g, w)
		}
	}
}

// TestPartialMergeBitIdentical: for integer-weight instances, the merged
// operator over owner-partitioned shards must reproduce the unsharded
// PartitionTruncator bit for bit across the whole τ grid — the invariant the
// router's release path stands on.
func TestPartialMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	taus := []float64{0, 1, 2, 3, 4, 8, 16, 32, 64, 128, 1024, 1 << 20}
	for trial := 0; trial < 60; trial++ {
		o := randomPartitionInstance(rng, true)
		ref := NewPartitionFromOccurrences(o)
		if ref == nil {
			t.Fatal("reference instance unexpectedly not partition-shaped")
		}
		// Local evaluation is the 1-shard merge: the operator's own partial
		// merges back into an operator equal to it (payload aside).
		self, err := MergePartials([]*Partial{ref.Partial()})
		if err != nil {
			t.Fatalf("MergePartials(own partial): %v", err)
		}
		if self.psi != nil || ref.psi == nil {
			t.Fatal("the emulation payload belongs to occurrence-built operators only")
		}
		requireBitIdentical(t, fmt.Sprintf("trial %d self-merge", trial), self, ref, taus)
		for _, k := range []int{1, 2, 4} {
			var parts []*Partial
			for _, so := range splitByOwner(o, k) {
				parts = append(parts, partialOf(t, so))
			}
			m, err := MergePartials(parts)
			if err != nil {
				t.Fatalf("MergePartials: %v", err)
			}
			if !m.intExact {
				t.Fatalf("trial %d k=%d: integer instance not in the integer-exact regime", trial, k)
			}
			requireBitIdentical(t, fmt.Sprintf("trial %d k=%d", trial, k), m, ref, taus)
		}
	}
}

// TestPartialMergeFractional: outside the integer regime the merge still
// computes the mathematically exact optimum (within float addition
// reassociation), and reports IntExact=false.
func TestPartialMergeFractional(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		o := randomPartitionInstance(rng, false)
		ref := NewPartitionFromOccurrences(o)
		var parts []*Partial
		for _, so := range splitByOwner(o, 3) {
			parts = append(parts, partialOf(t, so))
		}
		m, err := MergePartials(parts)
		if err != nil {
			t.Fatalf("MergePartials: %v", err)
		}
		if m.intExact {
			t.Fatal("fractional instance reported integer-exact")
		}
		// A payload-less operator over the very same part answers by the
		// formula where ref emulates: same bound.
		self, err := MergePartials([]*Partial{ref.Partial()})
		if err != nil {
			t.Fatalf("MergePartials(own partial): %v", err)
		}
		for _, tau := range []float64{0.5, 1.7, 4, 100} {
			want, err := ref.Value(tau)
			if err != nil {
				t.Fatalf("ref Value(%g): %v", tau, err)
			}
			for label, op := range map[string]*PartitionTruncator{"3-shard merge": m, "self-merge": self} {
				got, err := op.Value(tau)
				if err != nil {
					t.Fatalf("%s Value(%g): %v", label, tau, err)
				}
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d τ=%g: %s %v too far from %v", trial, tau, label, got, want)
				}
			}
		}
	}
}

func TestPartialRejectsUnmergeableShapes(t *testing.T) {
	// Shapes with no closed form never reach a Partial: the one scan returns
	// nil for them (TestPartitionDetection). What is left to reject is what
	// the merge itself can be handed.
	if _, err := MergePartials(nil); err == nil {
		t.Error("empty merge accepted")
	}
	// A hostile or buggy shard reply (or library caller) must fail the merge,
	// not flow into prefix and out as a negative or ±Inf release.
	ok := func() *Partial {
		return &Partial{Sorted: []float64{1, 2}, Total: 3, IntExact: true, Answer: 3, TauStar: 2, NumResults: 3}
	}
	if _, err := MergePartials([]*Partial{ok(), ok()}); err != nil {
		t.Fatalf("well-formed partials rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, parts := range map[string][]*Partial{
		"nil partial":          {nil},
		"negative Sorted":      {ok(), func() *Partial { p := ok(); p.Sorted[0] = -1; return p }()},
		"NaN Sorted":           {func() *Partial { p := ok(); p.Sorted[1] = nan; return p }()},
		"+Inf Sorted":          {func() *Partial { p := ok(); p.Sorted[1] = inf; return p }()},
		"negative Free":        {func() *Partial { p := ok(); p.Free = -0.5; return p }()},
		"-Inf Free":            {func() *Partial { p := ok(); p.Free = -inf; return p }()},
		"negative Total":       {func() *Partial { p := ok(); p.Total = -3; return p }()},
		"NaN Total":            {func() *Partial { p := ok(); p.Total = nan; return p }()},
		"negative Answer":      {func() *Partial { p := ok(); p.Answer = -3; return p }()},
		"+Inf Answer":          {func() *Partial { p := ok(); p.Answer = inf; return p }()},
		"negative TauStar":     {func() *Partial { p := ok(); p.TauStar = -2; return p }()},
		"NaN TauStar":          {func() *Partial { p := ok(); p.TauStar = nan; return p }()},
		"negative NumResults":  {func() *Partial { p := ok(); p.NumResults = -1; return p }()},
		"Sorted sum overflows": {{Sorted: []float64{1e308}}, {Sorted: []float64{1e308}}},
		"Free sum overflows":   {{Free: 1e308}, {Free: 1e308}},
		"Answer sum overflows": {{Answer: 1e308}, {Answer: 1e308}},
	} {
		if m, err := MergePartials(parts); err == nil {
			t.Errorf("%s: merge accepted (%+v)", name, m)
		}
	}
}

func TestPartitionMergedValueValidation(t *testing.T) {
	m, err := MergePartials([]*Partial{partialOf(t, occurrences(1, [][]int32{{0}}, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Value(-1); err == nil {
		t.Fatal("negative τ accepted")
	}
	if _, err := m.Value(math.NaN()); err == nil {
		t.Fatal("NaN τ accepted")
	}
	if v, err := m.Value(0); err != nil || v != 0 {
		t.Fatalf("Value(0) = %v, %v; want 0, nil", v, err)
	}
}
