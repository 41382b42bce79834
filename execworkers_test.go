package r2t

import (
	"fmt"
	"math"
	"testing"
)

// TestQueryExecWorkersBitIdentical: with the same seed, the released answer
// must not depend on the executor's parallelism — the parallel probe
// preserves row order, so LP objectives and noise consumption are identical.
func TestQueryExecWorkersBitIdentical(t *testing.T) {
	db := regionDB(t)
	queries := []struct {
		sql string
		opt Options
	}{
		{`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`,
			Options{Epsilon: 2, GSQ: 64, Primary: []string{"Customer"}}},
		{`SELECT COUNT(*) FROM Orders o1, Orders o2 WHERE o1.CK = o2.CK AND o1.OK < o2.OK`,
			Options{Epsilon: 2, GSQ: 64, Primary: []string{"Customer"}}},
		{`SELECT SUM(o.OK - 100) FROM Customer c, Orders o WHERE c.CK = o.CK`,
			Options{Epsilon: 2, GSQ: 1024, Primary: []string{"Customer"}, AllowNegativeSum: true}},
	}
	for _, q := range queries {
		var first *Answer
		for _, workers := range []int{1, 4, 8} {
			opt := q.opt
			opt.ExecWorkers = workers
			opt.Noise = NewNoiseSource(42)
			ans, err := db.Query(q.sql, opt)
			if err != nil {
				t.Fatalf("%q workers=%d: %v", q.sql, workers, err)
			}
			if first == nil {
				first = ans
				continue
			}
			if math.Float64bits(ans.Estimate) != math.Float64bits(first.Estimate) {
				t.Fatalf("%q workers=%d: estimate %v differs from serial %v", q.sql, workers, ans.Estimate, first.Estimate)
			}
			if ans.TrueAnswer != first.TrueAnswer || ans.TauStar != first.TauStar || ans.WinnerTau != first.WinnerTau {
				t.Fatalf("%q workers=%d: diagnostics differ from serial run", q.sql, workers)
			}
		}
	}
}

// TestQueryGroupByExecWorkersBitIdentical is the group-by half of the
// seeded end-to-end guarantee.
func TestQueryGroupByExecWorkersBitIdentical(t *testing.T) {
	db := regionDB(t)
	groups := []Value{Str("EU"), Str("US"), Str("APAC")}
	var first []GroupByAnswer
	for _, workers := range []int{1, 8} {
		out, err := db.QueryGroupBy(
			`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`,
			"c.region", groups,
			Options{Epsilon: 6, GSQ: 64, Primary: []string{"Customer"},
				Noise: NewNoiseSource(11), ExecWorkers: workers},
		)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = out
			continue
		}
		for i := range first {
			if math.Float64bits(out[i].Answer.Estimate) != math.Float64bits(first[i].Answer.Estimate) {
				t.Fatalf("workers=%d group %v: estimate %v differs from serial %v",
					workers, out[i].Group, out[i].Answer.Estimate, first[i].Answer.Estimate)
			}
		}
	}
}

// TestQueryGroupBySingleJoinEquivalence pins the single-join group-by to the
// strategy it replaced: running the query once per group with the predicate
// appended, threading one noise source through the sequence. Estimates must
// be bit-identical — same per-group rows in the same order, same LP
// objectives, same noise draws.
func TestQueryGroupBySingleJoinEquivalence(t *testing.T) {
	db := regionDB(t)
	base := `SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`
	groups := []Value{Str("EU"), Str("US"), Str("APAC"), Str("MARS")} // MARS is empty
	const seed = 19

	got, err := db.QueryGroupBy(base, "c.region", groups,
		Options{Epsilon: 4, GSQ: 64, Primary: []string{"Customer"}, Noise: NewNoiseSource(seed)})
	if err != nil {
		t.Fatal(err)
	}

	perGroup := Options{Epsilon: 4 / float64(len(groups)), GSQ: 64,
		Primary: []string{"Customer"}, Noise: NewNoiseSource(seed)}
	for i, g := range groups {
		want, err := db.Query(fmt.Sprintf("%s AND c.region = '%s'", base, g.S), perGroup)
		if err != nil {
			t.Fatalf("group %v: %v", g, err)
		}
		if math.Float64bits(got[i].Answer.Estimate) != math.Float64bits(want.Estimate) {
			t.Fatalf("group %v: estimate %v, per-group run gave %v", g, got[i].Answer.Estimate, want.Estimate)
		}
		if got[i].Answer.TrueAnswer != want.TrueAnswer {
			t.Fatalf("group %v: true answer %g, per-group run gave %g", g, got[i].Answer.TrueAnswer, want.TrueAnswer)
		}
		if got[i].Answer.NumResults != want.NumResults || got[i].Answer.Individuals != want.Individuals {
			t.Fatalf("group %v: result/individual counts differ from per-group run", g)
		}
	}
}

// TestQueryGroupByDuplicateRejected: each duplicate would silently charge
// (and waste) an extra ε share for a second release of the same group.
func TestQueryGroupByDuplicateRejected(t *testing.T) {
	db := regionDB(t)
	_, err := db.QueryGroupBy(
		`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`,
		"c.region", []Value{Str("EU"), Str("US"), Str("EU")},
		Options{Epsilon: 4, GSQ: 64, Primary: []string{"Customer"}, Noise: NewNoiseSource(3)},
	)
	if err == nil {
		t.Fatal("duplicate group values must be rejected")
	}
	// Duplicates that differ only in representation (2 vs 2.0) collide on
	// the canonical key and must be rejected too.
	_, err = db.QueryGroupBy(
		`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`,
		"c.CK", []Value{Int(2), Float(2)},
		Options{Epsilon: 4, GSQ: 64, Primary: []string{"Customer"}, Noise: NewNoiseSource(3)},
	)
	if err == nil {
		t.Fatal("canonically equal duplicate group values must be rejected")
	}
}
