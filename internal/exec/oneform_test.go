package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"r2t/internal/exec"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/tpch"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// TestOneFormInvariant: every view the executor emits — Result, both
// SplitResult halves, the PartitionedResult parts (plain and signed, with
// projections among the queries) and RunReference — is the occurrence form
// the truncation operators read, as is: a canonical universe of exactly the
// referenced individuals, rows in one capped slab, and totals equal to a
// recomputation over resolved individuals.
func TestOneFormInvariant(t *testing.T) {
	type fixture struct {
		tag       string
		p         *plan.Plan
		inst      *storage.Instance
		reference bool // small enough for the nested-loop oracle
		negative  bool // ψ < 0 rows: only the signed views apply
	}
	var fixtures []fixture
	build := func(src string, s *schema.Schema, primary []string) *plan.Plan {
		p, err := plan.Build(sql.MustParse(src), s, schema.PrivateSpec{Primary: primary})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return p
	}
	rng := rand.New(rand.NewSource(67))
	graphQueries := []string{
		exec.EdgeCountSQL,
		exec.TriangleSQL,
		`SELECT COUNT(DISTINCT e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`,
		`SELECT SUM(e1.src + e2.dst) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`,
	}
	const negativeSum = `SELECT SUM(e1.src - e2.dst) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`
	for g := 0; g < 4; g++ {
		n := 5 + rng.Intn(6)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		inst := exec.GraphInstance(n, edges)
		for _, src := range graphQueries {
			fixtures = append(fixtures, fixture{fmt.Sprintf("graph%d %q", g, src), build(src, exec.GraphSchema(), []string{"Node"}), inst, true, false})
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("graph%d %q", g, negativeSum), build(negativeSum, exec.GraphSchema(), []string{"Node"}), inst, false, true})
	}
	for g := 0; g < 4; g++ {
		inst := exec.RandomStarInstance(rng, 2+rng.Intn(4), 2+rng.Intn(6), 2+rng.Intn(8))
		primary := []string{"A"}
		if g%2 == 1 {
			primary = []string{"A", "B"}
		}
		for _, src := range exec.StarQueries {
			fixtures = append(fixtures, fixture{fmt.Sprintf("star%d %v %q", g, primary, src), build(src, exec.StarSchema(), primary), inst, true, false})
		}
	}
	tinst := tpch.Generate(tpch.GenOptions{SF: 0.01, Seed: 3})
	for _, q := range tpch.Queries() {
		fixtures = append(fixtures, fixture{"tpch " + q.Name, build(q.SQL, tpch.Schema(), q.Primary), tinst, false, false})
	}

	for _, f := range fixtures {
		core, err := exec.RunCore(f.p, f.inst, exec.Config{})
		if err != nil {
			t.Fatalf("%s: %v", f.tag, err)
		}
		views := map[string]*exec.Result{}
		if !f.negative {
			if views["result"], err = core.Result(f.p, nil); err != nil {
				t.Fatalf("%s: %v", f.tag, err)
			}
		}
		sum := f.p.SumExpr != nil
		if sum {
			if views["pos"], views["neg"], err = core.SplitResult(f.p, nil); err != nil {
				t.Fatalf("%s: %v", f.tag, err)
			}
		}
		// Partition on the first atom's last column, by values it holds plus
		// one it does not.
		a := f.p.Atoms[0]
		groupVar, col := a.Vars[len(a.Vars)-1], len(a.Vars)-1
		var groups []value.V
		seen := map[value.V]bool{}
		for _, row := range f.inst.Table(a.Rel.Name).Rows {
			if k := row[col].Key(); !seen[k] && len(groups) < 3 {
				seen[k] = true
				groups = append(groups, row[col])
			}
		}
		groups = append(groups, value.StringV("absent"))
		for _, signed := range []bool{false, true} {
			if signed && !sum || !signed && f.negative {
				continue
			}
			parts, err := core.PartitionedResult(f.p, nil, groupVar, groups, signed)
			if err != nil {
				t.Fatalf("%s: %v", f.tag, err)
			}
			for i, part := range parts {
				views[fmt.Sprintf("part %d (signed %v)", i, signed)] = part
			}
		}
		if f.reference {
			if views["reference"], err = exec.RunReference(f.p, f.inst); err != nil {
				t.Fatalf("%s: %v", f.tag, err)
			}
		}
		for name, v := range views {
			checkOneForm(t, f.tag+" "+name, f.p, v)
		}
	}
}

// checkOneForm asserts the invariants of one view (see TestOneFormInvariant).
func checkOneForm(t *testing.T, tag string, p *plan.Plan, v *exec.Result) {
	t.Helper()
	for i := 1; i < len(v.Universe); i++ {
		a, b := v.Universe[i-1], v.Universe[i]
		if !(a.Rel < b.Rel || a.Rel == b.Rel && value.Less(a.Key, b.Key)) {
			t.Fatalf("%s: universe not strictly ascending at %d: %v, %v", tag, i, a, b)
		}
	}
	var privRels []string // the private atoms' relations, in atom order
	for i, pk := range p.PrivPK {
		if pk >= 0 {
			privRels = append(privRels, p.Atoms[i].Rel.Name)
		}
	}
	referenced := make([]bool, len(v.Universe))
	sens := map[exec.TupleRef]float64{}
	var answer float64
	var prevEnd uintptr
	for k, row := range v.Rows {
		ids := row.RefIDs
		if cap(ids) != len(ids) {
			t.Fatalf("%s: row %d: ids capped at %d > len %d", tag, k, cap(ids), len(ids))
		}
		if len(ids) > 0 {
			start := uintptr(unsafe.Pointer(&ids[0]))
			if prevEnd != 0 && start != prevEnd {
				t.Fatalf("%s: row %d does not continue the previous row's slab", tag, k)
			}
			prevEnd = start + uintptr(len(ids))*unsafe.Sizeof(ids[0])
		}
		// In atom order: the rows' relations are a subsequence of the
		// private atoms'; no id twice.
		next := 0
		for i, id := range ids {
			for next < len(privRels) && privRels[next] != v.Universe[id].Rel {
				next++
			}
			if next == len(privRels) {
				t.Fatalf("%s: row %d: ids %v not in atom order %v", tag, k, v.Refs(k), privRels)
			}
			next++
			for _, prev := range ids[:i] {
				if prev == id {
					t.Fatalf("%s: row %d repeats id %d", tag, k, id)
				}
			}
			referenced[id] = true
		}
		answer += row.Psi
		for _, ref := range v.Refs(k) {
			sens[ref] += row.Psi
		}
	}
	for id, ok := range referenced {
		if !ok {
			t.Fatalf("%s: universe id %d (%v) is referenced by no row", tag, id, v.Universe[id])
		}
	}
	if v.IsProjection {
		answer = 0
		for _, w := range v.GroupPsi {
			answer += w
		}
	}
	var tauStar float64
	for _, s := range sens {
		tauStar = max(tauStar, s)
	}
	gotAnswer, gotTau := v.Totals()
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"Totals Q(I)", gotAnswer, answer}, {"Totals τ*", gotTau, tauStar},
		{"TrueAnswer", v.TrueAnswer(), answer}, {"MaxTupleSensitivity", v.MaxTupleSensitivity(), tauStar},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: %s = %v, recomputed %v", tag, c.what, c.got, c.want)
		}
	}
	if len(v.Universe) != len(sens) {
		t.Fatalf("%s: %d individuals, recomputed %d", tag, len(v.Universe), len(sens))
	}
	if truncation.FromResult(v) != v {
		t.Fatalf("%s: FromResult does not return the view itself", tag)
	}
	if a := testing.AllocsPerRun(10, func() { _ = truncation.FromResult(v) }); a != 0 {
		t.Fatalf("%s: FromResult allocates %v times", tag, a)
	}
}
