package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"r2t/internal/storage"
	"r2t/internal/value"
)

// probeParts probes every part of ix with key, concatenating matches in part
// order — the same traversal joinStepExec's multi-part path performs, so a
// mismatch against a fresh monolithic build here is exactly a wrong join.
func probeParts(ix *tableIndex, key []value.V) []int32 {
	ikey := make([]int64, 0, len(key))
	intOK := true
	for _, v := range key {
		kv := v.Key()
		if kv.K != value.Int {
			intOK = false
			break
		}
		ikey = append(ikey, kv.I)
	}
	var buf []byte
	for _, v := range key {
		buf = appendValueKey(buf, v)
	}
	var out []int32
	for _, part := range ix.parts {
		if part.intMode {
			if !intOK {
				continue
			}
			out = append(out, part.lookupInt(ikey)...)
		} else {
			out = append(out, part.lookup(buf)...)
		}
	}
	return out
}

func requireSameIDs(t *testing.T, tag string, want, got []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d (%v vs %v)", tag, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = row %d, want row %d", tag, i, got[i], want[i])
		}
	}
}

// extendRandomRows drives ExtendedTo through random append bursts and checks
// every key's matches — present and absent — against a fresh single-part
// build over the same rows, plus the immutability of superseded indexes.
func extendRandomRows(t *testing.T, seed int64, mixed bool) {
	rng := rand.New(rand.NewSource(seed))
	domain := 17
	rowFor := func() storage.Row {
		k := rng.Intn(domain)
		if mixed && k%5 == 0 {
			return storage.Row{value.StringV(fmt.Sprintf("k%d", k)), value.IntV(int64(rng.Intn(3)))}
		}
		return storage.Row{value.IntV(int64(k)), value.IntV(int64(rng.Intn(3)))}
	}
	keys := make([][]value.V, 0, 2*domain)
	for k := 0; k < domain; k++ {
		keys = append(keys, []value.V{value.IntV(int64(k))})
		keys = append(keys, []value.V{value.StringV(fmt.Sprintf("k%d", k))})
	}
	keys = append(keys, []value.V{value.IntV(int64(domain + 1))}) // never present

	rows := make([]storage.Row, 0, 512)
	for i := 0; i < 40; i++ {
		rows = append(rows, rowFor())
	}
	ix := buildIndex(rows, []int{0}, nil)
	type snap struct {
		ix    *tableIndex
		nRows int
	}
	history := []snap{{ix, len(rows)}}
	for burst := 0; burst < 25; burst++ {
		delta := rng.Intn(30) + 1
		for i := 0; i < delta; i++ {
			rows = append(rows, rowFor())
		}
		next, _, ok := ix.ExtendedTo(rows)
		if !ok {
			t.Fatalf("burst %d: ExtendedTo refused a pure extension", burst)
		}
		ix = next.(*tableIndex)
		if ix.nRows != len(rows) {
			t.Fatalf("burst %d: index covers %d rows, want %d", burst, ix.nRows, len(rows))
		}
		if len(ix.parts) > maxIndexParts {
			t.Fatalf("burst %d: %d parts, cap is %d", burst, len(ix.parts), maxIndexParts)
		}
		fresh := buildIndex(rows, []int{0}, nil)
		for _, key := range keys {
			requireSameIDs(t, fmt.Sprintf("burst %d key %v", burst, key),
				probeParts(fresh, key), probeParts(ix, key))
		}
		history = append(history, snap{ix, len(rows)})
	}
	// Superseded indexes must still answer their own prefix exactly: the
	// executor may be probing them concurrently with the Append that
	// published their successor.
	for hi, h := range history {
		fresh := buildIndex(rows[:h.nRows], []int{0}, nil)
		for _, key := range keys {
			requireSameIDs(t, fmt.Sprintf("history %d key %v", hi, key),
				probeParts(fresh, key), probeParts(h.ix, key))
		}
	}
}

func TestIndexExtendMatchesFreshBuildInt(t *testing.T)  { extendRandomRows(t, 101, false) }
func TestIndexExtendMatchesFreshBuildByte(t *testing.T) { extendRandomRows(t, 102, true) }

// TestIndexExtendCompactionAndRebuild pins the two amortization edges: the
// part-count cap collapses deltas instead of growing the probe fan-out, and
// a delta rivaling the base triggers a full rebuild (rebuilt=true) back to
// one part.
func TestIndexExtendCompactionAndRebuild(t *testing.T) {
	rows := make([]storage.Row, 0, 600)
	for i := 0; i < 200; i++ {
		rows = append(rows, storage.Row{value.IntV(int64(i % 7)), value.IntV(int64(i))})
	}
	ix := buildIndex(rows, []int{0}, nil)
	for burst := 0; burst < 12; burst++ {
		rows = append(rows, storage.Row{value.IntV(int64(burst % 7)), value.IntV(int64(1000 + burst))})
		next, rebuilt, ok := ix.ExtendedTo(rows)
		if !ok {
			t.Fatalf("burst %d: refused", burst)
		}
		if rebuilt {
			t.Fatalf("burst %d: tiny delta forced a rebuild", burst)
		}
		ix = next.(*tableIndex)
		if len(ix.parts) > maxIndexParts {
			t.Fatalf("burst %d: %d parts", burst, len(ix.parts))
		}
	}
	if len(ix.parts) < 2 {
		t.Fatalf("expected a multi-part index after small bursts, got %d parts", len(ix.parts))
	}
	// One delta as large as everything so far: rebuild.
	n := len(rows)
	for i := 0; i < n; i++ {
		rows = append(rows, storage.Row{value.IntV(int64(i % 7)), value.IntV(int64(2000 + i))})
	}
	next, rebuilt, ok := ix.ExtendedTo(rows)
	if !ok || !rebuilt {
		t.Fatalf("large delta: rebuilt=%v ok=%v, want true,true", rebuilt, ok)
	}
	ix = next.(*tableIndex)
	if len(ix.parts) != 1 {
		t.Fatalf("rebuild left %d parts, want 1", len(ix.parts))
	}
	fresh := buildIndex(rows, []int{0}, nil)
	for k := int64(0); k < 8; k++ {
		key := []value.V{value.IntV(k)}
		requireSameIDs(t, fmt.Sprintf("post-rebuild key %d", k),
			probeParts(fresh, key), probeParts(ix, key))
	}
}

// TestIndexExtendRefusesShrunkenRows: tables are append-only; a "rows" slice
// shorter than what the index covers means the caller is confused, and the
// index must refuse rather than serve wrong matches.
func TestIndexExtendRefusesShrunkenRows(t *testing.T) {
	rows := []storage.Row{
		{value.IntV(1), value.IntV(10)},
		{value.IntV(2), value.IntV(20)},
	}
	ix := buildIndex(rows, []int{0}, nil)
	if _, _, ok := ix.ExtendedTo(rows[:1]); ok {
		t.Fatal("ExtendedTo accepted a shrunken row slice")
	}
}

// TestIndexExtendEmptyDelta: re-tagging with no new rows returns the receiver
// unchanged — an Append to a *different* column set's rows, or a zero-row
// Append, must not churn the cache.
func TestIndexExtendEmptyDelta(t *testing.T) {
	rows := []storage.Row{{value.IntV(1), value.IntV(10)}}
	ix := buildIndex(rows, []int{0}, nil)
	next, rebuilt, ok := ix.ExtendedTo(rows)
	if !ok || rebuilt || next.(*tableIndex) != ix {
		t.Fatalf("empty delta: next=%p rebuilt=%v ok=%v, want receiver,false,true", next, rebuilt, ok)
	}
}

// TestExtendedIndexServedOnQueries is the end-to-end claim: across a write
// burst interleaved with queries, the build-side cache is extended — never
// invalidated — and every post-append answer matches a run over a
// from-scratch copy of the instance, row for row.
func TestExtendedIndexServedOnQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	inst := randomStarInstance(rng, 50, 400, 0)
	src := `SELECT COUNT(*) FROM A a1, B WHERE B.a = a1.ID`
	p := mustPlan(t, src, starSchema(), []string{"A"})
	first, err := Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := first.TrueAnswer()
	for i := 0; i < 20; i++ {
		inst.MustInsert("B", storage.Row{value.IntV(int64(10_000 + i)), value.IntV(int64(i % 50)), value.IntV(1)})
		want++
		got, err := Run(p, inst)
		if err != nil {
			t.Fatal(err)
		}
		if got.TrueAnswer() != want {
			t.Fatalf("after append %d: answer %g, want %g", i, got.TrueAnswer(), want)
		}
		scratch, err := Run(p, inst.Clone())
		if err != nil {
			t.Fatal(err)
		}
		requireSameExact(t, fmt.Sprintf("append %d", i), scratch, got)
		oracle, err := RunReference(p, inst)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMultiset(t, fmt.Sprintf("append %d vs oracle", i), oracle, got)
	}
	stats := inst.Table("B").JoinCacheStats()
	if stats.Extensions == 0 {
		t.Fatalf("no index extensions recorded across 20 appends: %+v", stats)
	}
	if stats.Invalidations != 0 {
		t.Fatalf("%d invalidations — appends should extend, not invalidate: %+v", stats.Invalidations, stats)
	}
	if stats.Hits < 20 {
		t.Fatalf("only %d cache hits across 20 post-append queries: %+v", stats.Hits, stats)
	}
}
