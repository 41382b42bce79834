package r2t

import (
	"strings"
	"testing"
)

// TestExportReportGolden pins the Figure 3 handoff file byte for byte: the
// individual count, one "ψ id id ..." line per join result in join order with
// ids in atom order, and the #group lines of a COUNT(DISTINCT). The shop's
// keys are inserted out of order, and individuals are numbered in (relation,
// key) order whatever order the rows reference them in: in the two-primary
// file Catalog b,m,z are 0..2 and Customer 2,4,7,9 are 3..6.
func TestExportReportGolden(t *testing.T) {
	db := NewDB(MustSchema(
		&Relation{Name: "Customer", Attrs: []string{"CK"}, PK: "CK"},
		&Relation{Name: "Catalog", Attrs: []string{"sku"}, PK: "sku"},
		&Relation{Name: "Orders", Attrs: []string{"OK", "CK", "sku", "price"}, PK: "OK",
			FKs: []FK{{Attr: "CK", Ref: "Customer"}, {Attr: "sku", Ref: "Catalog"}}},
	))
	insert := func(rel string, vals ...Value) {
		t.Helper()
		if err := db.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	for _, ck := range []int64{7, 2, 9, 4} {
		insert("Customer", Int(ck))
	}
	for _, sku := range []string{"z", "b", "m"} {
		insert("Catalog", Str(sku))
	}
	for i, o := range []struct {
		ck    int64
		sku   string
		price float64
	}{
		{9, "m", 2.5}, {7, "z", 1}, {9, "b", 0.25}, {2, "m", 4}, {7, "m", 3}, {4, "z", 1.5}, {2, "b", 2},
	} {
		insert("Orders", Int(int64(100-i)), Int(o.ck), Str(o.sku), Float(o.price))
	}
	for _, c := range []struct {
		name, sql string
		primary   []string
		want      string
	}{
		{"count/two-primaries", `SELECT COUNT(*) FROM Orders o WHERE o.price > 1`, []string{"Customer", "Catalog"},
			"#individuals 7\n1 4 2\n1 3 0\n1 6 1\n1 3 1\n1 5 1\n"},
		{"sum", `SELECT SUM(o.price) FROM Customer c, Orders o WHERE c.CK = o.CK`, []string{"Customer"},
			"#individuals 4\n1 2\n1.5 1\n0.25 3\n2 0\n2.5 3\n4 0\n3 2\n"},
		{"count-distinct", `SELECT COUNT(DISTINCT o.sku) FROM Customer c, Orders o WHERE c.CK = o.CK AND o.price > 1`, []string{"Customer"},
			"#individuals 4\n1 1\n1 0\n1 3\n1 0\n1 2\n#group 1 0\n#group 1 1\n#group 1 2 3 4\n"},
	} {
		var b strings.Builder
		if err := db.ExportReport(c.sql, c.primary, &b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := b.String(); got != c.want {
			t.Errorf("%s: exported\n%q\nwant\n%q", c.name, got, c.want)
		}
	}
}
