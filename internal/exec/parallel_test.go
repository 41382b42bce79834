package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"r2t/internal/graph"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/tpch"
	"r2t/internal/value"
)

// requireSameExact asserts got is bit-identical to want: same rows in the
// same order (ψ bits included), same interned universe and per-row ids, and
// the same projection structure. This is the contract between two runs of
// the same plan over the same rows, whatever the worker count or cache state.
func requireSameExact(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got.Rows), len(want.Rows))
	}
	if len(got.Universe) != len(want.Universe) {
		t.Fatalf("%s: universe %d, want %d", tag, len(got.Universe), len(want.Universe))
	}
	for i := range want.Universe {
		if got.Universe[i] != want.Universe[i] {
			t.Fatalf("%s: universe[%d] = %v, want %v", tag, i, got.Universe[i], want.Universe[i])
		}
	}
	for k := range want.Rows {
		if math.Float64bits(got.Rows[k].Psi) != math.Float64bits(want.Rows[k].Psi) {
			t.Fatalf("%s: row %d ψ = %g, want %g", tag, k, got.Rows[k].Psi, want.Rows[k].Psi)
		}
		g, w := got.Rows[k].RefIDs, want.Rows[k].RefIDs
		if len(g) != len(w) {
			t.Fatalf("%s: row %d has %d refs, want %d", tag, k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: row %d ref %d = %d, want %d", tag, k, i, g[i], w[i])
			}
		}
	}
	requireSameGroups(t, tag, want, got)
}

// requireSameResolved is requireSameExact for results from different runs
// (whose universes may be numbered differently): rows must match in order
// with identical ψ bits and identical resolved individuals.
func requireSameResolved(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got.Rows), len(want.Rows))
	}
	for k := range want.Rows {
		if math.Float64bits(got.Rows[k].Psi) != math.Float64bits(want.Rows[k].Psi) {
			t.Fatalf("%s: row %d ψ = %g, want %g", tag, k, got.Rows[k].Psi, want.Rows[k].Psi)
		}
		g, w := got.Refs(k), want.Refs(k)
		if len(g) != len(w) {
			t.Fatalf("%s: row %d has %d refs, want %d", tag, k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: row %d ref %d = %v, want %v", tag, k, i, g[i], w[i])
			}
		}
	}
	requireSameGroups(t, tag, want, got)
}

func requireSameGroups(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if got.IsProjection != want.IsProjection {
		t.Fatalf("%s: IsProjection = %v, want %v", tag, got.IsProjection, want.IsProjection)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d projection groups, want %d", tag, len(got.Groups), len(want.Groups))
	}
	for l := range want.Groups {
		if math.Float64bits(got.GroupPsi[l]) != math.Float64bits(want.GroupPsi[l]) {
			t.Fatalf("%s: group %d ψ = %g, want %g", tag, l, got.GroupPsi[l], want.GroupPsi[l])
		}
		if len(got.Groups[l]) != len(want.Groups[l]) {
			t.Fatalf("%s: group %d has %d rows, want %d", tag, l, len(got.Groups[l]), len(want.Groups[l]))
		}
		for i := range want.Groups[l] {
			if got.Groups[l][i] != want.Groups[l][i] {
				t.Fatalf("%s: group %d member %d = %d, want %d", tag, l, i, got.Groups[l][i], want.Groups[l][i])
			}
		}
	}
}

// rowSignature renders row k (ψ bits plus resolved individuals) for
// order-insensitive comparison against the nested-loop oracle.
func rowSignature(res *Result, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%016x", math.Float64bits(res.Rows[k].Psi))
	for _, ref := range res.Refs(k) {
		b.WriteByte('|')
		b.WriteString(ref.String())
	}
	return b.String()
}

// requireSameMultiset compares two results of the same query evaluated in
// different row orders: identical row multisets (ψ and provenance),
// identical projection partitions up to group and member order, identical
// sensitivity profiles.
func requireSameMultiset(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	ws := make([]string, len(want.Rows))
	gs := make([]string, len(got.Rows))
	for k := range want.Rows {
		ws[k] = rowSignature(want, k)
	}
	for k := range got.Rows {
		gs[k] = rowSignature(got, k)
	}
	sort.Strings(ws)
	sort.Strings(gs)
	if len(ws) != len(gs) {
		t.Fatalf("%s: %d rows, want %d", tag, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("%s: row multiset differs at %d: %s vs %s", tag, i, gs[i], ws[i])
		}
	}
	groupSig := func(res *Result) []string {
		out := make([]string, len(res.Groups))
		for l, group := range res.Groups {
			members := make([]string, len(group))
			for i, k := range group {
				members[i] = rowSignature(res, k)
			}
			sort.Strings(members)
			out[l] = fmt.Sprintf("%016x#%s", math.Float64bits(res.GroupPsi[l]), strings.Join(members, "+"))
		}
		sort.Strings(out)
		return out
	}
	wg, gg := groupSig(want), groupSig(got)
	if len(wg) != len(gg) {
		t.Fatalf("%s: %d projection groups, want %d", tag, len(gg), len(wg))
	}
	for i := range wg {
		if wg[i] != gg[i] {
			t.Fatalf("%s: projection partition differs: %s vs %s", tag, gg[i], wg[i])
		}
	}
	wsens, gsens := want.SensitivityByTuple(), got.SensitivityByTuple()
	if len(wsens) != len(gsens) {
		t.Fatalf("%s: %d sensitive tuples, want %d", tag, len(gsens), len(wsens))
	}
	for ref, v := range wsens {
		if math.Abs(gsens[ref]-v) > 1e-9 {
			t.Fatalf("%s: S(%v) = %g, want %g", tag, ref, gsens[ref], v)
		}
	}
	if math.Abs(want.DownwardSensitivity()-got.DownwardSensitivity()) > 1e-9 {
		t.Fatalf("%s: DS = %g, want %g", tag, got.DownwardSensitivity(), want.DownwardSensitivity())
	}
}

func mustPlan(t *testing.T, src string, s *schema.Schema, primary []string) *plan.Plan {
	t.Helper()
	p, err := plan.Build(sql.MustParse(src), s, schema.PrivateSpec{Primary: primary})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return p
}

// starSchema is a three-level FK chain with mixed value kinds, used by the
// randomized harness: A is the individual, B references A, C references both.
func starSchema() *schema.Schema {
	return schema.MustNew(
		&schema.Relation{Name: "A", Attrs: []string{"ID", "x"}, PK: "ID"},
		&schema.Relation{Name: "B", Attrs: []string{"ID", "a", "y"}, PK: "ID",
			FKs: []schema.FK{{Attr: "a", Ref: "A"}}},
		&schema.Relation{Name: "C", Attrs: []string{"ID", "b", "a2", "z"}, PK: "ID",
			FKs: []schema.FK{{Attr: "b", Ref: "B"}, {Attr: "a2", Ref: "A"}}},
	)
}

// randomStarInstance generates a random instance of starSchema; key domains
// are kept small so hash buckets collide and repeated values exercise the
// canonical encoding (ints, integral floats, strings).
func randomStarInstance(rng *rand.Rand, nA, nB, nC int) *storage.Instance {
	inst := storage.NewInstance(starSchema())
	for i := 0; i < nA; i++ {
		x := value.IntV(int64(rng.Intn(5)))
		if rng.Intn(3) == 0 {
			x = value.FloatV(float64(rng.Intn(5))) // integral float: Key() folds to int
		}
		inst.MustInsert("A", storage.Row{value.IntV(int64(i)), x})
	}
	for i := 0; i < nB; i++ {
		inst.MustInsert("B", storage.Row{
			value.IntV(int64(i)),
			value.IntV(int64(rng.Intn(nA))),
			value.IntV(int64(rng.Intn(6))),
		})
	}
	for i := 0; i < nC; i++ {
		inst.MustInsert("C", storage.Row{
			value.IntV(int64(i)),
			value.IntV(int64(rng.Intn(nB))),
			value.IntV(int64(rng.Intn(nA))),
			value.FloatV(float64(rng.Intn(5))), // non-negative SUM weights
		})
	}
	return inst
}

var starQueries = []string{
	`SELECT COUNT(*) FROM B, C WHERE C.b = B.ID`,
	`SELECT COUNT(*) FROM B, C WHERE C.b = B.ID AND B.y > 2`,
	`SELECT SUM(c1.z) FROM C c1, B WHERE c1.b = B.ID AND B.y > 1`,
	`SELECT COUNT(*) FROM C c1, C c2 WHERE c1.a2 = c2.a2 AND c1.ID < c2.ID`,
	`SELECT COUNT(DISTINCT B.a) FROM B, C WHERE C.b = B.ID AND C.z > 1`,
	`SELECT COUNT(*) FROM A a1, B WHERE a1.x > 2`,
}

// TestExecEquivalenceRandomized is the randomized cross-check harness: on
// generated instances of two schema families, the optimized executor must
// match the nested-loop oracle as a multiset (rows, provenance, projection
// partitions, sensitivities), and every worker count must reproduce the
// serial run bit-for-bit (row order included): Workers: 1 defines the order.
func TestExecEquivalenceRandomized(t *testing.T) {
	type trial struct {
		p    *plan.Plan
		inst *storage.Instance
		tag  string
	}
	var trials []trial

	rng := rand.New(rand.NewSource(17))
	graphQueries := []string{
		edgeCountSQL,
		triangleSQL,
		`SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src AND e1.src < e2.dst`,
		`SELECT COUNT(DISTINCT e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`,
	}
	for g := 0; g < 6; g++ {
		n := 4 + rng.Intn(5)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		inst := graphInstance(n, edges)
		for _, src := range graphQueries {
			trials = append(trials, trial{
				p:    mustPlan(t, src, graphSchema(), []string{"Node"}),
				inst: inst,
				tag:  fmt.Sprintf("graph%d %q", g, src),
			})
		}
	}
	for g := 0; g < 6; g++ {
		inst := randomStarInstance(rng, 2+rng.Intn(4), 2+rng.Intn(6), 2+rng.Intn(8))
		primary := []string{"A"}
		if rng.Intn(2) == 0 {
			primary = []string{"A", "B"}
		}
		for _, src := range starQueries {
			trials = append(trials, trial{
				p:    mustPlan(t, src, starSchema(), primary),
				inst: inst,
				tag:  fmt.Sprintf("star%d %v %q", g, primary, src),
			})
		}
	}

	for _, tr := range trials {
		oracle, err := RunReference(tr.p, tr.inst)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tr.tag, err)
		}
		serial, err := RunConfig(tr.p, tr.inst, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: serial: %v", tr.tag, err)
		}
		requireSameMultiset(t, tr.tag+" serial-vs-oracle", oracle, serial)
		for _, w := range []int{4, 8} {
			got, err := RunConfig(tr.p, tr.inst, Config{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tr.tag, w, err)
			}
			requireSameExact(t, fmt.Sprintf("%s workers=%d", tr.tag, w), serial, got)
		}
	}
}

// TestExecWorkersBitIdenticalLarge drives a row count big enough for real
// chunking (multiple chunks per worker) and checks bit-identity against the
// serial run on the standard triangle workload.
func TestExecWorkersBitIdenticalLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 120
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.12 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	inst := graphInstance(n, edges)
	for _, src := range []string{edgeCountSQL, triangleSQL} {
		p := mustPlan(t, src, graphSchema(), []string{"Node"})
		serial, err := RunConfig(p, inst, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Rows) == 0 {
			t.Fatalf("%q: workload produced no rows", src)
		}
		for _, w := range []int{4, 8} {
			got, err := RunConfig(p, inst, Config{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			requireSameExact(t, fmt.Sprintf("%q workers=%d", src, w), serial, got)
		}
	}
}

// resultDigest hashes everything downstream consumers observe of a result,
// in order: per row the ψ bits and the resolved individuals, then the
// projection groups (ψ bits and member row indices).
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.Rows)))
	for k := range res.Rows {
		put(math.Float64bits(res.Rows[k].Psi))
		refs := res.Refs(k)
		put(uint64(len(refs)))
		for _, ref := range refs {
			fmt.Fprintf(h, "%s;", ref)
		}
	}
	put(uint64(len(res.Groups)))
	for l, group := range res.Groups {
		put(math.Float64bits(res.GroupPsi[l]))
		put(uint64(len(group)))
		for _, k := range group {
			put(uint64(k))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExecRowOrderPinned pins the executor's absolute row order to frozen
// output rather than frozen code. The digests were recorded at commit 522150e
// from the pre-optimization map-based serial executor, which the change that
// added this test deleted — so they carry the order every executor since the
// first has had to reproduce. A deliberate order change (a new join
// ordering, say) re-records them; an accidental one fails here.
func TestExecRowOrderPinned(t *testing.T) {
	social := graph.GenSocial(300, 1200, 64, 3)
	ginst := storage.NewInstance(graphSchema())
	for u := 0; u < social.N; u++ {
		ginst.MustInsert("Node", storage.Row{value.IntV(int64(u))})
		for _, v := range social.Adj[u] {
			ginst.MustInsert("Edge", storage.Row{value.IntV(int64(u)), value.IntV(int64(v))})
		}
	}
	q3 := tpch.QueryByName("Q3")
	for _, f := range []struct {
		name   string
		p      *plan.Plan
		inst   *storage.Instance
		rows   int
		digest string
	}{
		{"graph-triangles", mustPlan(t, triangleSQL, graphSchema(), []string{"Node"}), ginst,
			297, "f8fc010806d6e9d2ed6f4950db6e23a7a8ed0f34fa17a9d73ba2b78ce87a8c5f"},
		{"tpch-q3", mustPlan(t, q3.SQL, tpch.Schema(), q3.Primary), tpch.Generate(tpch.GenOptions{SF: 0.25, Seed: 1}),
			377, "4944367aa65692acad25a4801f6be392262cc456e5477c35acd6f0c36464dbba"},
	} {
		for _, w := range []int{1, 4, 8} {
			got, err := RunConfig(f.p, f.inst, Config{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", f.name, w, err)
			}
			if len(got.Rows) != f.rows {
				t.Fatalf("%s workers=%d: %d rows, want %d", f.name, w, len(got.Rows), f.rows)
			}
			if d := resultDigest(got); d != f.digest {
				t.Fatalf("%s workers=%d: row-order digest %s, want %s", f.name, w, d, f.digest)
			}
		}
	}
}

// TestExecSmallSideBuild forces the build-on-current path (tiny probe side,
// ≥1024-row table) and the cached-index path (large probe side), asserting
// both match the oracle's content and the serial run's order.
func TestExecSmallSideBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := `SELECT COUNT(*) FROM A a1, B WHERE B.a = a1.ID AND B.y < 4`
	for _, nA := range []int{5, 600} { // 5: build-current; 600: cached table index
		inst := randomStarInstance(rng, nA, 3000, 0)
		p := mustPlan(t, src, starSchema(), []string{"A"})
		oracle, err := RunReference(p, inst)
		if err != nil {
			t.Fatal(err)
		}
		if len(oracle.Rows) == 0 {
			t.Fatalf("nA=%d: workload produced no rows", nA)
		}
		serial, err := RunConfig(p, inst, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		requireSameMultiset(t, fmt.Sprintf("nA=%d serial-vs-oracle", nA), oracle, serial)
		got, err := RunConfig(p, inst, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireSameExact(t, fmt.Sprintf("nA=%d workers=4", nA), serial, got)
	}
}

// TestIndexCacheInvalidatedOnInsert runs a query twice around an insert: the
// second run must see the new rows, not a stale cached index, and must equal
// a run over a from-scratch copy of the instance (no cache history).
func TestIndexCacheInvalidatedOnInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := randomStarInstance(rng, 50, 200, 0)
	src := `SELECT COUNT(*) FROM A a1, B WHERE B.a = a1.ID`
	p := mustPlan(t, src, starSchema(), []string{"A"})
	first, err := Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	inst.MustInsert("B", storage.Row{value.IntV(10_000), value.IntV(0), value.IntV(1)})
	second, err := Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	if second.TrueAnswer() != first.TrueAnswer()+1 {
		t.Fatalf("after insert: answer %g, want %g (stale cached index?)", second.TrueAnswer(), first.TrueAnswer()+1)
	}
	scratch, err := Run(p, inst.Clone())
	if err != nil {
		t.Fatal(err)
	}
	requireSameExact(t, "post-insert", scratch, second)
	oracle, err := RunReference(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMultiset(t, "post-insert vs oracle", oracle, second)
}

// TestRunPartitionedMatchesPredicatedRuns checks the single-join group-by
// claim at the executor level: partition i of one unpredicated run equals —
// row for row, in order, projection structure included — a full run with the
// equality predicate appended.
func TestRunPartitionedMatchesPredicatedRuns(t *testing.T) {
	s := schema.MustNew(
		&schema.Relation{Name: "Customer", Attrs: []string{"CK", "region"}, PK: "CK"},
		&schema.Relation{Name: "Orders", Attrs: []string{"OK", "CK", "qty"}, PK: "OK",
			FKs: []schema.FK{{Attr: "CK", Ref: "Customer"}}},
	)
	inst := storage.NewInstance(s)
	rng := rand.New(rand.NewSource(41))
	regions := []string{"EU", "US", "APAC"}
	ok := int64(0)
	for c := int64(0); c < 60; c++ {
		inst.MustInsert("Customer", storage.Row{value.IntV(c), value.StringV(regions[rng.Intn(3)])})
		for o := 0; o < rng.Intn(4); o++ {
			inst.MustInsert("Orders", storage.Row{value.IntV(ok), value.IntV(c), value.IntV(int64(rng.Intn(5)))})
			ok++
		}
	}
	queries := []string{
		`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`,
		`SELECT SUM(o.qty) FROM Customer c, Orders o WHERE c.CK = o.CK`,
		`SELECT COUNT(DISTINCT o.CK) FROM Customer c, Orders o WHERE c.CK = o.CK`,
	}
	// "MARS" matches nothing: its partition and its predicated run are empty.
	groups := []value.V{value.StringV("EU"), value.StringV("US"), value.StringV("APAC"), value.StringV("MARS")}
	for _, src := range queries {
		p := mustPlan(t, src, s, []string{"Customer"})
		groupVar := p.ColVar(sql.ColRef{Qualifier: "c", Attr: "region"})
		if groupVar < 0 {
			t.Fatalf("%q: c.region not a join column", src)
		}
		core, err := RunCore(p, inst, Config{})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := core.PartitionedResult(p, nil, groupVar, groups, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range groups {
			predicated := fmt.Sprintf("%s AND c.region = '%s'", src, g.S)
			want, err := RunConfig(mustPlan(t, predicated, s, []string{"Customer"}), inst, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResolved(t, fmt.Sprintf("%q group %v", src, g), want, parts[i])
		}
	}

	p := mustPlan(t, queries[0], s, []string{"Customer"})
	groupVar := p.ColVar(sql.ColRef{Qualifier: "c", Attr: "region"})
	core, err := RunCore(p, inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PartitionedResult(p, nil, groupVar, []value.V{value.StringV("EU"), value.StringV("EU")}, false); err == nil {
		t.Fatal("duplicate partition values must be rejected")
	}
}
