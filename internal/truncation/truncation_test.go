package truncation

import (
	"math"
	"math/rand"
	"testing"

	"r2t/internal/exec"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/value"
)

func graphSchema() *schema.Schema {
	return schema.MustNew(
		&schema.Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []schema.FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
}

func graphInstance(n int, edges [][2]int) *storage.Instance {
	inst := storage.NewInstance(graphSchema())
	for i := 0; i < n; i++ {
		inst.MustInsert("Node", storage.Row{value.IntV(int64(i))})
	}
	for _, e := range edges {
		inst.MustInsert("Edge", storage.Row{value.IntV(int64(e[0])), value.IntV(int64(e[1]))})
		inst.MustInsert("Edge", storage.Row{value.IntV(int64(e[1])), value.IntV(int64(e[0]))})
	}
	return inst
}

const edgeCountSQL = `SELECT count(*) FROM Node AS Node1, Node AS Node2, Edge
	WHERE Edge.src = Node1.ID AND Edge.dst = Node2.ID AND Node1.ID < Node2.ID`

const triangleSQL = `SELECT count(*) FROM Edge e1, Edge e2, Edge e3
	WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
	  AND e1.src < e2.src AND e2.src < e3.src`

func runQuery(t *testing.T, src string, inst *storage.Instance) *exec.Result {
	t.Helper()
	q := sql.MustParse(src)
	p, err := plan.Build(q, graphSchema(), schema.PrivateSpec{Primary: []string{"Node"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// example62Instance is the instance of Example 6.2: 1000 triangles, 1000
// 4-cliques, 100 8-stars, 10 16-stars, one 32-star — scaled down by `scale`
// to keep tests fast (the paper's counts correspond to scale=1).
func example62Instance(scale int) *storage.Instance {
	var edges [][2]int
	next := 0
	alloc := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = next
			next++
		}
		return ids
	}
	clique := func(k int) {
		ids := alloc(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, [2]int{ids[i], ids[j]})
			}
		}
	}
	star := func(k int) {
		ids := alloc(k + 1)
		for i := 1; i <= k; i++ {
			edges = append(edges, [2]int{ids[0], ids[i]})
		}
	}
	for i := 0; i < 1000/scale; i++ {
		clique(3)
	}
	for i := 0; i < 1000/scale; i++ {
		clique(4)
	}
	for i := 0; i < 100/scale; i++ {
		star(8)
	}
	for i := 0; i < 10/scale; i++ {
		star(16)
	}
	star(32)
	return graphInstance(next, edges)
}

func TestExample62(t *testing.T) {
	// Full-size instance: reproduces the paper's worked LP values exactly.
	inst := example62Instance(1)
	res := runQuery(t, edgeCountSQL, inst)
	if got := res.TrueAnswer(); got != 9992 {
		t.Fatalf("Q(I) = %g, want 9992", got)
	}
	tr := NewLPFromOccurrences(res)
	want := map[float64]float64{0: 0, 2: 7222, 4: 9444, 8: 9888, 16: 9976, 32: 9992, 64: 9992, 256: 9992}
	for tau, exp := range want {
		got, err := tr.Value(tau)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-exp) > 1e-6 {
			t.Errorf("Q(I,%g) = %g, want %g", tau, got, exp)
		}
	}
	if got := tr.TauStar(); got != 32 {
		t.Errorf("τ* = %g, want 32 (the 32-star's center)", got)
	}
}

func randomGraph(rng *rand.Rand) (int, [][2]int) {
	n := 4 + rng.Intn(6)
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return n, edges
}

// TestLPProperties verifies the three R2T properties on random instances:
// (1) |Q(I,τ) − Q(I′,τ)| ≤ τ across down-neighbors I′ (removing one node),
// (2) Q(I,τ) ≤ Q(I), and (3) Q(I,τ) = Q(I) for τ ≥ τ*(I), with monotonicity
// in τ for good measure.
func TestLPProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	taus := []float64{0, 1, 2, 3, 4, 8, 16}
	for trial := 0; trial < 20; trial++ {
		n, edges := randomGraph(rng)
		inst := graphInstance(n, edges)
		for _, src := range []string{edgeCountSQL, triangleSQL} {
			res := runQuery(t, src, inst)
			tr := NewLPFromOccurrences(res)
			answer := tr.TrueAnswer()
			prev := -1.0
			vals := make(map[float64]float64)
			for _, tau := range taus {
				v, err := tr.Value(tau)
				if err != nil {
					t.Fatal(err)
				}
				vals[tau] = v
				if v > answer+1e-7 {
					t.Fatalf("property 2 violated: Q(I,%g)=%g > Q(I)=%g", tau, v, answer)
				}
				if v < prev-1e-7 {
					t.Fatalf("monotonicity violated at τ=%g: %g < %g", tau, v, prev)
				}
				prev = v
			}
			if v, err := tr.Value(tr.TauStar()); err != nil || math.Abs(v-answer) > 1e-6 {
				t.Fatalf("property 3 violated: Q(I,τ*=%g)=%g, Q(I)=%g (err=%v)", tr.TauStar(), v, answer, err)
			}

			// Property 1 against every down-neighbor.
			for node := 0; node < n; node++ {
				nb, err := inst.RemoveIndividual("Node", value.IntV(int64(node)))
				if err != nil {
					t.Fatal(err)
				}
				nres := runQuery(t, src, nb)
				ntr := NewLPFromOccurrences(nres)
				for _, tau := range taus {
					nv, err := ntr.Value(tau)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(nv-vals[tau]) > tau+1e-6 {
						t.Fatalf("property 1 violated: τ=%g |%g − %g| > τ (node %d removed, query %q)",
							tau, vals[tau], nv, node, src)
					}
				}
			}
		}
	}
}

func TestNaiveMatchesClosedFormSelfJoinFree(t *testing.T) {
	// Customer→Orders counting query: per-customer sensitivities are the
	// order counts; naive truncation sums those ≤ τ.
	s := schema.MustNew(
		&schema.Relation{Name: "Customer", Attrs: []string{"CK"}, PK: "CK"},
		&schema.Relation{Name: "Orders", Attrs: []string{"OK", "CK"}, PK: "OK",
			FKs: []schema.FK{{Attr: "CK", Ref: "Customer"}}},
	)
	inst := storage.NewInstance(s)
	counts := []int{1, 3, 5, 10}
	ok := 0
	for c, cnt := range counts {
		inst.MustInsert("Customer", storage.Row{value.IntV(int64(c))})
		for i := 0; i < cnt; i++ {
			inst.MustInsert("Orders", storage.Row{value.IntV(int64(ok)), value.IntV(int64(c))})
			ok++
		}
	}
	q := sql.MustParse("SELECT COUNT(*) FROM Orders")
	p, err := plan.Build(q, s, schema.PrivateSpec{Primary: []string{"Customer"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NewNaiveFromOccurrences(res)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]float64{0: 0, 1: 1, 2: 1, 3: 4, 4: 4, 5: 9, 9: 9, 10: 19, 100: 19}
	for tau, want := range cases {
		got, err := nt.Value(tau)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("naive Q(I,%g) = %g, want %g", tau, got, want)
		}
	}
	if nt.TauStar() != 10 {
		t.Errorf("naive τ* = %g, want 10", nt.TauStar())
	}
	if nt.TrueAnswer() != 19 {
		t.Errorf("naive Q(I) = %g, want 19", nt.TrueAnswer())
	}

	// The LP truncator dominates naive truncation pointwise (it caps rather
	// than drops) and agrees at τ ≥ τ*.
	ltr := NewLPFromOccurrences(res)
	for tau := 0.0; tau <= 12; tau++ {
		lv, err := ltr.Value(tau)
		if err != nil {
			t.Fatal(err)
		}
		nv, _ := nt.Value(tau)
		if lv < nv-1e-9 {
			t.Errorf("LP %g < naive %g at τ=%g", lv, nv, tau)
		}
		if want := math.Min(1, tau) + math.Min(3, tau) + math.Min(5, tau) + math.Min(10, tau); math.Abs(lv-want) > 1e-9 {
			t.Errorf("LP Q(I,%g) = %g, want %g", tau, lv, want)
		}
	}
}

func TestNaiveRejectsSelfJoins(t *testing.T) {
	inst := graphInstance(4, [][2]int{{0, 1}, {1, 2}})
	res := runQuery(t, edgeCountSQL, inst)
	if _, err := NewNaiveFromOccurrences(res); err == nil {
		t.Fatal("naive truncation must reject self-join results")
	}
}

func TestSPJAProjectionLP(t *testing.T) {
	// Example 7.1 with m=6: Q(I,τ) = min(m, 2τ), τ* = IS = m.
	s := schema.MustNew(
		&schema.Relation{Name: "R1", Attrs: []string{"x1"}, PK: "x1"},
		&schema.Relation{Name: "R2", Attrs: []string{"x1", "x2"},
			FKs: []schema.FK{{Attr: "x1", Ref: "R1"}}},
	)
	inst := storage.NewInstance(s)
	const m = 6
	for i := 1; i <= 2; i++ {
		inst.MustInsert("R1", storage.Row{value.IntV(int64(i))})
		for j := 1; j <= m; j++ {
			inst.MustInsert("R2", storage.Row{value.IntV(int64(i)), value.IntV(int64(j))})
		}
	}
	q := sql.MustParse("SELECT COUNT(DISTINCT R2.x2) FROM R2")
	p, err := plan.Build(q, s, schema.PrivateSpec{Primary: []string{"R1"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(p, inst)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLPFromOccurrences(res)
	if tr.TauStar() != m {
		t.Fatalf("τ* = %g, want IS = %d", tr.TauStar(), m)
	}
	for tau := 0.0; tau <= m+2; tau++ {
		v, err := tr.Value(tau)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Min(m, 2*tau)
		if math.Abs(v-want) > 1e-6 {
			t.Errorf("SPJA Q(I,%g) = %g, want %g", tau, v, want)
		}
	}
}

func TestSPJAProperty1(t *testing.T) {
	// Distinct-source counting on random graphs: check the τ-Lipschitz
	// property across down-neighbors for the projection LP.
	const projSQL = `SELECT COUNT(DISTINCT e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src`
	rng := rand.New(rand.NewSource(23))
	taus := []float64{0, 1, 2, 4, 8}
	for trial := 0; trial < 12; trial++ {
		n, edges := randomGraph(rng)
		inst := graphInstance(n, edges)
		res := runQuery(t, projSQL, inst)
		tr := NewLPFromOccurrences(res)
		vals := map[float64]float64{}
		for _, tau := range taus {
			v, err := tr.Value(tau)
			if err != nil {
				t.Fatal(err)
			}
			vals[tau] = v
			if v > tr.TrueAnswer()+1e-7 {
				t.Fatalf("property 2 violated for SPJA at τ=%g", tau)
			}
		}
		if v, _ := tr.Value(tr.TauStar()); math.Abs(v-tr.TrueAnswer()) > 1e-6 {
			t.Fatalf("property 3 violated for SPJA: Q(I,τ*)=%g vs %g", v, tr.TrueAnswer())
		}
		for node := 0; node < n; node++ {
			nb, err := inst.RemoveIndividual("Node", value.IntV(int64(node)))
			if err != nil {
				t.Fatal(err)
			}
			ntr := NewLPFromOccurrences(runQuery(t, projSQL, nb))
			for _, tau := range taus {
				nv, err := ntr.Value(tau)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(nv-vals[tau]) > tau+1e-6 {
					t.Fatalf("SPJA property 1 violated at τ=%g: |%g−%g| > τ", tau, vals[tau], nv)
				}
			}
		}
	}
}

func TestBounderDominatesValue(t *testing.T) {
	inst := example62Instance(10)
	res := runQuery(t, edgeCountSQL, inst)
	tr := NewLPFromOccurrences(res)
	for _, tau := range []float64{2, 8, 32} {
		v, err := tr.Value(tau)
		if err != nil {
			t.Fatal(err)
		}
		b := tr.Bounder(tau)
		for i := 0; i < 10; i++ {
			if bound := b.Tighten(10); bound < v-1e-6 {
				t.Fatalf("dual bound %g below exact value %g at τ=%g", bound, v, tau)
			}
		}
	}
}

func TestNegativeTauRejected(t *testing.T) {
	inst := graphInstance(3, [][2]int{{0, 1}})
	tr := NewLPFromOccurrences(runQuery(t, edgeCountSQL, inst))
	if _, err := tr.Value(-1); err == nil {
		t.Fatal("negative τ must error")
	}
	nt := &NaiveTruncator{}
	if _, err := nt.Value(-1); err == nil {
		t.Fatal("negative τ must error (naive)")
	}
}
