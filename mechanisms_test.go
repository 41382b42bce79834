package r2t

import (
	"context"
	"math"
	"strings"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/obs"
	"r2t/internal/truncation"
)

// shopDB builds the single-FK SJA shape: every order belongs to exactly one
// customer, so the truncation LP's capacity rows partition the variables and
// the closed-form partition truncator applies.
func shopDB(t *testing.T, orders [][2]int64, customers int64) *DB {
	t.Helper()
	s := MustSchema(
		&Relation{Name: "Customer", Attrs: []string{"ID"}, PK: "ID"},
		&Relation{Name: "Orders", Attrs: []string{"cid", "price"},
			FKs: []FK{{Attr: "cid", Ref: "Customer"}}},
	)
	db := NewDB(s)
	for i := int64(0); i < customers; i++ {
		if err := db.Insert("Customer", Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range orders {
		if err := db.Insert("Orders", Int(o[0]), Int(o[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	return db
}

func skewedOrders(customers, per int64) [][2]int64 {
	var orders [][2]int64
	for c := int64(0); c < customers; c++ {
		n := per
		if c == 0 {
			n = per * 8 // one heavy hitter, so truncation actually bites
		}
		for i := int64(0); i < n; i++ {
			orders = append(orders, [2]int64{c, 1 + i%5})
		}
	}
	return orders
}

// queryWithLP is Query with the evaluate stage's operator swapped, through the
// stage seams, for the general LP truncator: the simplex side of the fast-path
// equivalence gate.
func queryWithLP(t *testing.T, db *DB, q string, opt Options) *Answer {
	t.Helper()
	ctx := context.Background()
	p, err := db.Prepare(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.coreFor(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	views, err := p.results(c)
	if err != nil {
		t.Fatal(err)
	}
	units := make([]Unit, len(views))
	for i, res := range views {
		lt := truncation.NewLPFromOccurrences(res)
		lt.SetRecorder(p.rec)
		units[i] = unitOf(res)
		units[i].Op = lt
	}
	answers, err := p.Release(ctx, units, opt.Noise)
	if err != nil {
		t.Fatal(err)
	}
	return answers[0]
}

// TestPartitionFastPathBitIdentical is the tentpole's contract: the released
// answer with the closed-form partition truncator is bit-for-bit the answer
// the simplex pipeline releases under the same seed — for COUNT (integer-exact
// regime) and SUM (integral ψ), with and without EarlyStop.
func TestPartitionFastPathBitIdentical(t *testing.T) {
	db := shopDB(t, skewedOrders(30, 4), 30)
	queries := []string{
		`SELECT COUNT(*) FROM Orders`,
		`SELECT SUM(Orders.price) FROM Orders`,
	}
	for _, q := range queries {
		for _, early := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				base := Options{
					Epsilon: 0.8, GSQ: 512, Primary: []string{"Customer"},
					EarlyStop: early, Profile: true,
				}
				fast := base
				fast.Noise = NewNoiseSource(seed)
				slow := base
				slow.Noise = NewNoiseSource(seed)

				af, err := db.Query(q, fast)
				if err != nil {
					t.Fatal(err)
				}
				as := queryWithLP(t, db, q, slow)
				if math.Float64bits(af.Estimate) != math.Float64bits(as.Estimate) {
					t.Fatalf("%s early=%v seed=%d: fast %v (%x) != simplex %v (%x)",
						q, early, seed, af.Estimate, math.Float64bits(af.Estimate),
						as.Estimate, math.Float64bits(as.Estimate))
				}
				if af.WinnerTau != as.WinnerTau || af.TauStar != as.TauStar || af.TrueAnswer != as.TrueAnswer {
					t.Fatalf("%s early=%v seed=%d: diagnostics diverge: %+v vs %+v", q, early, seed, af, as)
				}
				// The fast run really took the fast path, and the slow run didn't.
				if af.Profile.Counters[obs.CtrPartitionFastPath.String()] != 1 {
					t.Fatalf("%s: fast run did not use the partition path: %v", q, af.Profile.Counters)
				}
				if as.Profile.Counters[obs.CtrPartitionFastPath.String()] != 0 {
					t.Fatalf("%s: the LP run used the partition path", q)
				}
			}
		}
	}
}

// TestPartitionFastPathNotUsedOnSharedProvenance: the edge-count query's
// provenance names two nodes per edge, so the LP must stay in charge.
func TestPartitionFastPathNotUsedOnSharedProvenance(t *testing.T) {
	db := graphDB(t, [][2]int64{{0, 1}, {1, 2}, {0, 2}}, 3)
	ans, err := db.Query(edgeCount, Options{
		Epsilon: 1, GSQ: 16, Primary: []string{"Node"}, Noise: NewNoiseSource(3), Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Profile.Counters[obs.CtrPartitionFastPath.String()] != 0 {
		t.Fatal("shared provenance must not take the partition path")
	}
}

func TestMechanismLaplace(t *testing.T) {
	db := shopDB(t, skewedOrders(20, 3), 20)
	ans, err := db.Query(`SELECT COUNT(*) FROM Orders`, Options{
		Epsilon: 1, GSQ: 128, Primary: []string{"Customer"},
		Mechanism: "laplace", Noise: dp.ZeroNoise{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "laplace" {
		t.Fatalf("Mechanism = %q", ans.Mechanism)
	}
	// Laplace is unbiased: under zero noise the release IS the true answer.
	if ans.Estimate != ans.TrueAnswer {
		t.Fatalf("laplace zero-noise estimate %g != truth %g", ans.Estimate, ans.TrueAnswer)
	}
}

func TestMechanismFixedTau(t *testing.T) {
	db := shopDB(t, skewedOrders(20, 3), 20)
	// τ=2 truncates the heavy hitter: under zero noise the release is
	// Σ_j min(τ, S_j), strictly below the truth here.
	ans, err := db.Query(`SELECT COUNT(*) FROM Orders`, Options{
		Epsilon: 1, GSQ: 128, Primary: []string{"Customer"},
		Mechanism: "fixed-tau", FixedTau: 2, Noise: dp.ZeroNoise{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "fixed-tau" {
		t.Fatalf("Mechanism = %q", ans.Mechanism)
	}
	// Every customer has S_j ≥ 3, so all 20 are capped at τ=2.
	if ans.Estimate != 2*20 {
		t.Fatalf("fixed-tau zero-noise estimate %g, want %g", ans.Estimate, float64(2*20))
	}
	if ans.Estimate >= ans.TrueAnswer {
		t.Fatalf("τ=2 should truncate: estimate %g, truth %g", ans.Estimate, ans.TrueAnswer)
	}
}

func TestMechanismLS(t *testing.T) {
	db := shopDB(t, skewedOrders(20, 3), 20)
	ans, err := db.Query(`SELECT COUNT(*) FROM Orders`, Options{
		Epsilon: 1, GSQ: 128, Primary: []string{"Customer"},
		Mechanism: "ls", Noise: NewNoiseSource(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "ls" {
		t.Fatalf("Mechanism = %q", ans.Mechanism)
	}
	if math.IsNaN(ans.Estimate) || math.IsInf(ans.Estimate, 0) {
		t.Fatalf("ls estimate %g", ans.Estimate)
	}
	// LS on a self-join is structurally rejected before any evaluation.
	gdb := graphDB(t, [][2]int64{{0, 1}}, 2)
	if _, err := gdb.Query(edgeCount, Options{
		Epsilon: 1, GSQ: 16, Primary: []string{"Node"}, Mechanism: "ls",
	}); err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("ls on self-join: err = %v", err)
	}
}

func TestMechanismAuto(t *testing.T) {
	db := shopDB(t, skewedOrders(20, 3), 20)
	// Loose target: laplace qualifies and is cheapest.
	ans, err := db.Query(`SELECT COUNT(*) FROM Orders`, Options{
		Epsilon: 1, GSQ: 128, Primary: []string{"Customer"},
		Mechanism: "auto", ErrorTarget: 1e6, Noise: NewNoiseSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "laplace" {
		t.Fatalf("auto loose target picked %q (%s)", ans.Mechanism, ans.MechReason)
	}
	if ans.MechBound <= 0 || ans.MechBound > 1e6 {
		t.Fatalf("MechBound = %g", ans.MechBound)
	}
	// No target: the instance-optimal default.
	ans, err = db.Query(`SELECT COUNT(*) FROM Orders`, Options{
		Epsilon: 1, GSQ: 128, Primary: []string{"Customer"},
		Mechanism: "auto", Noise: NewNoiseSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mechanism != "r2t" {
		t.Fatalf("auto without target picked %q", ans.Mechanism)
	}
	// The fallback is the r2t run itself: same seed, same released bits.
	plain, err := db.Query(`SELECT COUNT(*) FROM Orders`, Options{
		Epsilon: 1, GSQ: 128, Primary: []string{"Customer"}, Noise: NewNoiseSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "auto fallback vs plain r2t", ans.Estimate, plain.Estimate)
}

// TestChooserDataIndependence is the §15 property end to end: neighboring
// databases (one individual's rows removed) select the SAME mechanism under
// auto — the decision depends on the query, never the instance.
func TestChooserDataIndependence(t *testing.T) {
	orders := skewedOrders(25, 3)
	var without [][2]int64
	for _, o := range orders {
		if o[0] != 0 { // drop the heavy hitter's entire order set
			without = append(without, o)
		}
	}
	dbA := shopDB(t, orders, 25)
	dbB := shopDB(t, without, 25)
	for _, target := range []float64{0, 100, 1e6} {
		opt := Options{
			Epsilon: 1, GSQ: 256, Primary: []string{"Customer"},
			Mechanism: "auto", ErrorTarget: target, Noise: NewNoiseSource(1),
		}
		a, err := dbA.Query(`SELECT COUNT(*) FROM Orders`, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Noise = NewNoiseSource(1)
		b, err := dbB.Query(`SELECT COUNT(*) FROM Orders`, opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mechanism != b.Mechanism || a.MechReason != b.MechReason || a.MechBound != b.MechBound {
			t.Fatalf("target %g: neighbors chose differently: %q(%q) vs %q(%q)",
				target, a.Mechanism, a.MechReason, b.Mechanism, b.MechReason)
		}
	}
}

func TestMechanismOptionValidation(t *testing.T) {
	db := shopDB(t, [][2]int64{{0, 1}}, 1)
	base := Options{Epsilon: 1, GSQ: 16, Primary: []string{"Customer"}}
	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"unknown mechanism", func(o *Options) { o.Mechanism = "bogus" }},
		{"naive with laplace", func(o *Options) { o.Naive = true; o.Mechanism = "laplace" }},
		{"negative error target", func(o *Options) { o.ErrorTarget = -1 }},
		{"error target without auto", func(o *Options) { o.ErrorTarget = 10 }},
		{"fixed tau without fixed-tau", func(o *Options) { o.FixedTau = 4 }},
		{"fixed tau above GSQ", func(o *Options) { o.Mechanism = "fixed-tau"; o.FixedTau = 32 }},
		{"negative fixed tau", func(o *Options) { o.Mechanism = "fixed-tau"; o.FixedTau = -2 }},
	}
	for _, tc := range cases {
		opt := base
		tc.mod(&opt)
		if _, err := db.Query(`SELECT COUNT(*) FROM Orders`, opt); err == nil {
			t.Errorf("%s: want validation error", tc.name)
		}
	}
}

// TestBudgetNotChargedForInapplicableMechanism: the chooser runs before the
// budget spends, so a structurally invalid request costs zero ε.
func TestBudgetNotChargedForInapplicableMechanism(t *testing.T) {
	db := graphDB(t, [][2]int64{{0, 1}}, 2)
	budget := MustBudget(1)
	_, err := db.QueryWithBudget(edgeCount, Options{
		Epsilon: 0.5, GSQ: 16, Primary: []string{"Node"}, Mechanism: "ls",
	}, budget)
	if err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("err = %v", err)
	}
	if budget.Spent() != 0 {
		t.Fatalf("inapplicable mechanism charged ε: spent %g", budget.Spent())
	}
	// A valid request afterwards still works and charges.
	if _, err := db.QueryWithBudget(edgeCount, Options{
		Epsilon: 0.5, GSQ: 16, Primary: []string{"Node"}, Noise: NewNoiseSource(1),
	}, budget); err != nil {
		t.Fatal(err)
	}
	if budget.Spent() != 0.5 {
		t.Fatalf("spent %g, want 0.5", budget.Spent())
	}
}

// TestNaiveShapesRefusedBeforeCharge: naive truncation, whether reached
// through ls or Options.Naive, is refused from the query's shape alone — two
// primary-private atoms, or a self-join — before any ε is charged, on an
// empty instance and a one-row instance alike. Refusing after the charge would
// answer the empty instance and fail the other: a data-dependent bit outside
// the ε accounting.
func TestNaiveShapesRefusedBeforeCharge(t *testing.T) {
	twoPrimaries := func(rows bool) *DB {
		db := NewDB(MustSchema(
			&Relation{Name: "Customer", Attrs: []string{"CK"}, PK: "CK"},
			&Relation{Name: "Supplier", Attrs: []string{"SK"}, PK: "SK"},
			&Relation{Name: "Orders", Attrs: []string{"OK", "CK", "SK"}, PK: "OK",
				FKs: []FK{{Attr: "CK", Ref: "Customer"}, {Attr: "SK", Ref: "Supplier"}}},
		))
		if rows {
			for _, ins := range []struct {
				rel  string
				vals []Value
			}{{"Customer", []Value{Int(1)}}, {"Supplier", []Value{Int(1)}}, {"Orders", []Value{Int(1), Int(1), Int(1)}}} {
				if err := db.Insert(ins.rel, ins.vals...); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db
	}
	selfJoin := func(rows bool) *DB {
		if rows {
			return graphDB(t, [][2]int64{{0, 1}}, 2)
		}
		return graphDB(t, nil, 0)
	}
	for _, c := range []struct {
		name string
		db   func(rows bool) *DB
		sql  string
		opt  Options
	}{
		{"ls, two primaries", twoPrimaries, `SELECT COUNT(*) FROM Orders`, Options{Mechanism: "ls", Primary: []string{"Customer", "Supplier"}}},
		{"naive, two primaries", twoPrimaries, `SELECT COUNT(*) FROM Orders`, Options{Naive: true, Primary: []string{"Customer", "Supplier"}}},
		{"ls, self-join", selfJoin, edgeCount, Options{Mechanism: "ls", Primary: []string{"Node"}}},
		{"naive, self-join", selfJoin, edgeCount, Options{Naive: true, Primary: []string{"Node"}}},
	} {
		for _, rows := range []bool{false, true} {
			opt := c.opt
			opt.Epsilon, opt.GSQ, opt.Noise = 1, 16, NewNoiseSource(1)
			budget := MustBudget(10)
			_, err := c.db(rows).QueryWithBudget(c.sql, opt, budget)
			if err == nil || !strings.Contains(err.Error(), "does not apply") {
				t.Errorf("%s (rows %v): err = %v, want a structural refusal", c.name, rows, err)
			}
			if budget.Spent() != 0 {
				t.Errorf("%s (rows %v): refused request charged ε: spent %g", c.name, rows, budget.Spent())
			}
		}
	}
}
