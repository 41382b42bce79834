package r2t

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func graphDB(t *testing.T, edges [][2]int64, n int64) *DB {
	t.Helper()
	s := MustSchema(
		&Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
	db := NewDB(s)
	for i := int64(0); i < n; i++ {
		if err := db.Insert("Node", Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := db.Insert("Edge", Int(e[0]), Int(e[1])); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("Edge", Int(e[1]), Int(e[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	return db
}

const edgeCount = `SELECT COUNT(*) FROM Edge WHERE Edge.src < Edge.dst`

func TestQueryEndToEnd(t *testing.T) {
	// A modest graph: 40 disjoint triangles.
	var edges [][2]int64
	for i := int64(0); i < 40; i++ {
		a, b, c := 3*i, 3*i+1, 3*i+2
		edges = append(edges, [2]int64{a, b}, [2]int64{b, c}, [2]int64{a, c})
	}
	db := graphDB(t, edges, 120)
	ans, err := db.Query(edgeCount, Options{
		Epsilon: 1, GSQ: 256, Primary: []string{"Node"}, Noise: NewNoiseSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.TrueAnswer != 120 {
		t.Fatalf("true answer %g, want 120", ans.TrueAnswer)
	}
	if ans.TauStar != 2 {
		t.Fatalf("τ* = %g, want 2 (every node is in 2 edges)", ans.TauStar)
	}
	if ans.Estimate > ans.TrueAnswer+1e-9 {
		t.Errorf("estimate %g exceeds truth %g", ans.Estimate, ans.TrueAnswer)
	}
	if ans.Individuals != 120 || ans.NumResults != 120 {
		t.Errorf("diagnostics: %+v", ans)
	}
	// With τ*=2 the error bound is tiny relative to the answer.
	if bound := ErrorBound(Options{Epsilon: 1, GSQ: 256, Beta: 0.1}, ans.TauStar); ans.TrueAnswer-ans.Estimate > bound {
		t.Errorf("error %g above Theorem 5.1 bound %g", ans.TrueAnswer-ans.Estimate, bound)
	}
}

func TestQueryValidation(t *testing.T) {
	db := graphDB(t, [][2]int64{{0, 1}}, 2)
	if _, err := db.Query("garbage", Options{Epsilon: 1, GSQ: 4, Primary: []string{"Node"}}); err == nil {
		t.Error("bad SQL should fail")
	}
	if _, err := db.Query(edgeCount, Options{GSQ: 4, Primary: []string{"Node"}}); err == nil {
		t.Error("missing ε should fail")
	}
	if _, err := db.Query(edgeCount, Options{Epsilon: 1, Primary: []string{"Node"}}); err == nil {
		t.Error("missing GSQ should fail")
	}
	if _, err := db.Query(edgeCount, Options{Epsilon: 1, GSQ: 4}); err == nil {
		t.Error("missing primary private relation should fail")
	}
	if _, err := db.Query(edgeCount, Options{Epsilon: 1, GSQ: 4, Primary: []string{"Node"}, Naive: true}); err == nil {
		t.Error("naive truncation on a self-join should fail")
	}
}

func TestNaiveOptionOnSelfJoinFree(t *testing.T) {
	s := MustSchema(
		&Relation{Name: "Customer", Attrs: []string{"CK"}, PK: "CK"},
		&Relation{Name: "Orders", Attrs: []string{"OK", "CK"}, PK: "OK",
			FKs: []FK{{Attr: "CK", Ref: "Customer"}}},
	)
	db := NewDB(s)
	for c := int64(0); c < 50; c++ {
		if err := db.Insert("Customer", Int(c)); err != nil {
			t.Fatal(err)
		}
		for o := int64(0); o < 4; o++ {
			if err := db.Insert("Orders", Int(c*10+o), Int(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, naive := range []bool{false, true} {
		ans, err := db.Query("SELECT COUNT(*) FROM Orders", Options{
			Epsilon: 2, GSQ: 1024, Primary: []string{"Customer"}, Naive: naive, Noise: NewNoiseSource(7),
		})
		if err != nil {
			t.Fatalf("naive=%v: %v", naive, err)
		}
		if ans.TrueAnswer != 200 {
			t.Fatalf("true answer %g", ans.TrueAnswer)
		}
		if math.Abs(ans.Estimate-200) > 190 {
			t.Errorf("naive=%v: estimate %g too far from 200", naive, ans.Estimate)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.csv")
	db := graphDB(t, [][2]int64{{0, 1}}, 2)
	if err := db.Instance().WriteCSVFile("Node", path); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB(db.Schema())
	if err := db2.LoadCSV("Node", path); err != nil {
		t.Fatal(err)
	}
	if db2.Instance().Table("Node").Len() != 2 {
		t.Fatal("CSV load lost rows")
	}
}

func TestExportReport(t *testing.T) {
	db := graphDB(t, [][2]int64{{0, 1}, {1, 2}, {0, 2}}, 3)
	var buf strings.Builder
	if err := db.ExportReport(edgeCount, []string{"Node"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "#individuals 3") {
		t.Fatalf("header missing: %q", out)
	}
	// 3 edges → 3 occurrence lines after the header.
	lines := strings.Count(strings.TrimSpace(out), "\n")
	if lines != 3 {
		t.Fatalf("expected 3 occurrence lines, got %d in %q", lines, out)
	}
	if err := db.ExportReport("garbage", []string{"Node"}, &buf); err == nil {
		t.Error("bad SQL should fail")
	}
}

func TestEarlyStopOption(t *testing.T) {
	// Every release prunes races by their dual bounds; the deprecated
	// EarlyStop option is ignored, so setting it moves no bit and no race.
	var edges [][2]int64
	for i := int64(1); i <= 20; i++ {
		edges = append(edges, [2]int64{0, i}) // a 20-star
	}
	db := graphDB(t, edges, 21)
	plain, err := db.Query(edgeCount, Options{Epsilon: 1, GSQ: 1024, Primary: []string{"Node"}, Noise: NewNoiseSource(3)})
	if err != nil {
		t.Fatal(err)
	}
	early, err := db.Query(edgeCount, Options{Epsilon: 1, GSQ: 1024, Primary: []string{"Node"}, Noise: NewNoiseSource(3), EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.Estimate) != math.Float64bits(early.Estimate) {
		t.Errorf("EarlyStop changed the estimate: %g vs %g", early.Estimate, plain.Estimate)
	}
	if !reflect.DeepEqual(racesOnly(plain.Races), racesOnly(early.Races)) {
		t.Errorf("EarlyStop changed the races: %+v vs %+v", early.Races, plain.Races)
	}
	pruned := 0
	for _, r := range plain.Races {
		if r.Pruned {
			pruned++
		}
	}
	if pruned == 0 {
		t.Errorf("no race pruned without EarlyStop set: %+v", plain.Races)
	}
}

// racesOnly drops each race's wall-clock duration, the one field that varies
// between identical runs.
func racesOnly(races []Race) []Race {
	out := make([]Race, len(races))
	for i, r := range races {
		r.Duration = 0
		out[i] = r
	}
	return out
}
