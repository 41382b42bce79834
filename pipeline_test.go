package r2t

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// pipelineCase is one row of the pipeline gate's corpus: a query, its
// options, and — for group-by rows — the public group list.
type pipelineCase struct {
	name   string
	sql    string
	opt    Options // Noise is set per run from the row's seed
	column string  // group-by rows only
	groups []Value
	// partials is what the shard-side entry points owe this row: merge (r2t
	// over a partition-shaped join: the merged release must match), refuse
	// (another mechanism, or a projection), or nothing to check (Naive swaps
	// in an operator whose partials the router does not merge).
	partials string
}

const (
	partialsMerge  = "merge"
	partialsRefuse = "refuse"

	gateCount  = `SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`
	gateSum    = `SELECT SUM(o.price) FROM Customer c, Orders o, Catalog g WHERE c.CK = o.CK AND o.sku = g.sku AND o.price > 0`
	gateSigned = `SELECT SUM(o.price) FROM Customer c, Orders o WHERE c.CK = o.CK`
	gateSelf   = `SELECT COUNT(*) FROM Orders o1, Orders o2 WHERE o1.CK = o2.CK AND o1.OK < o2.OK`
	gateDist   = `SELECT COUNT(DISTINCT o.sku) FROM Customer c, Orders o WHERE c.CK = o.CK`
	// gateOrders under Primary {Customer, Catalog} has two private atoms.
	gateOrders = `SELECT COUNT(*) FROM Orders o`
)

func pipelineCorpus() []pipelineCase {
	base := Options{Epsilon: 16, GSQ: 256, Primary: []string{"Customer"}}
	with := func(f func(*Options)) Options {
		o := base
		f(&o)
		return o
	}
	regions := []Value{Str("EU"), Str("US"), Str("APAC")}
	return []pipelineCase{
		{name: "count", sql: gateCount, opt: base, partials: partialsMerge},
		{name: "count/earlystop", sql: gateCount, opt: with(func(o *Options) { o.EarlyStop = true }), partials: partialsMerge},
		{name: "count/naive", sql: gateCount, opt: with(func(o *Options) { o.Naive = true })},
		{name: "sum", sql: gateSum, opt: base, partials: partialsMerge},
		{name: "count-distinct", sql: gateDist, opt: base, partials: partialsRefuse},
		{name: "self-join", sql: gateSelf, opt: base, partials: partialsMerge},
		{name: "signed-sum", sql: gateSigned, opt: with(func(o *Options) { o.AllowNegativeSum = true }), partials: partialsMerge},
		{name: "laplace", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "laplace" }), partials: partialsRefuse},
		{name: "fixed-tau", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "fixed-tau"; o.FixedTau = 8 }), partials: partialsRefuse},
		{name: "ls", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "ls" }), partials: partialsRefuse},
		{name: "auto/target", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "auto"; o.ErrorTarget = 1e6 }), partials: partialsRefuse},
		{name: "auto/fallback", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "auto" }), partials: partialsMerge},
		{name: "group-by", sql: gateCount, opt: with(func(o *Options) { o.Epsilon = 48 }), column: "c.region", groups: regions, partials: partialsMerge},
		{name: "group-by/signed", sql: gateSigned, opt: with(func(o *Options) { o.Epsilon, o.AllowNegativeSum = 48, true }),
			column: "c.region", groups: regions, partials: partialsMerge},
	}
}

// TestPipelineGate: every entry point is a fan-out over the same prepare →
// evaluate → release stages, so under one seed they must all release the same
// bits — Query, QueryWithBudget, the matching QueryBatch item, the matching
// QueryGroupBy group, and the router's walk (Prepare on a schema-only DB,
// per-shard Partials, MergeUnits, Release) over 1, 2 and 4 shards.
func TestPipelineGate(t *testing.T) {
	ctx := context.Background()
	full, _ := buildShardedShop(t, rand.New(rand.NewSource(7)), 1)
	router := NewDB(full.Schema()) // no rows: prepares, never evaluates
	corpus := pipelineCorpus()
	seeded := func(i int) Options {
		o := corpus[i].opt
		o.Noise = NewNoiseSource(int64(500 + i))
		return o
	}

	// The reference bits: Query, or QueryGroupBy for group-by rows.
	want := make([][]float64, len(corpus))
	var batch []BatchQuery
	var batchRow []int
	for i, c := range corpus {
		if c.groups != nil {
			out, err := full.QueryGroupBy(c.sql, c.column, c.groups, seeded(i))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, g := range out {
				want[i] = append(want[i], g.Answer.Estimate)
			}
			continue
		}
		ans, err := full.Query(c.sql, seeded(i))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = []float64{ans.Estimate}
		batch = append(batch, BatchQuery{SQL: c.sql, Opt: seeded(i)})
		batchRow = append(batchRow, i)
	}

	answers, err := full.QueryBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range batchRow {
		bitEqual(t, corpus[i].name+": batch item", answers[k].Estimate, want[i][0])
	}

	for i, c := range corpus {
		// Data-independence: a DB of the same schema with no rows prepares to
		// the same normalized SQL, mechanism choice and explanation.
		gb := (*groupSpec)(nil)
		if c.groups != nil {
			gb = &groupSpec{column: c.column, values: c.groups}
		}
		loaded, err := full.prepare(c.sql, c.opt, gb)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		empty, err := router.prepare(c.sql, seeded(i), gb)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if loaded.SQL() != empty.SQL() || !reflect.DeepEqual(loaded.Choice(), empty.Choice()) ||
			!reflect.DeepEqual(loaded.Explanation(), empty.Explanation()) {
			t.Errorf("%s: prepare depends on the instance:\n loaded %q %+v\n empty  %q %+v",
				c.name, loaded.SQL(), loaded.Choice(), empty.SQL(), empty.Choice())
		}

		if c.groups == nil {
			budget := MustBudget(100)
			ans, err := full.QueryWithBudget(c.sql, seeded(i), budget)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			bitEqual(t, c.name+": with budget", ans.Estimate, want[i][0])
			if budget.Spent() != c.opt.Epsilon {
				t.Errorf("%s: budget spent %g, want %g", c.name, budget.Spent(), c.opt.Epsilon)
			}
		} else {
			// Group g is the query with "column = g" appended, at ε/G, drawing
			// from the one source in group order.
			solo := seeded(i)
			solo.Epsilon = c.opt.Epsilon / float64(len(c.groups))
			for g, v := range c.groups {
				ans, err := full.Query(fmt.Sprintf("%s AND %s = '%s'", c.sql, c.column, v.S), solo)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				bitEqual(t, fmt.Sprintf("%s: group %s alone", c.name, v.S), ans.Estimate, want[i][g])
			}
		}

		if c.partials == partialsRefuse {
			if _, err := full.partials(ctx, c.sql, c.opt, gb); err == nil {
				t.Errorf("%s: partials must be refused", c.name)
			}
		}
		if c.partials != partialsMerge {
			continue
		}
		for _, nShards := range []int{1, 2, 4} {
			_, shards := buildShardedShop(t, rand.New(rand.NewSource(7)), nShards)
			perShard := make([][]*Partial, nShards)
			for s, sdb := range shards {
				qp, err := sdb.partials(ctx, c.sql, c.opt, gb)
				if err != nil {
					t.Fatalf("%s: shard %d: %v", c.name, s, err)
				}
				perShard[s] = qp.Units
			}
			units, err := empty.MergeUnits(perShard)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			released, err := empty.Release(ctx, units, NewNoiseSource(int64(500+i)))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(released) != len(want[i]) {
				t.Fatalf("%s: %d releases, want %d", c.name, len(released), len(want[i]))
			}
			for g, ans := range released {
				bitEqual(t, fmt.Sprintf("%s: %d-way merged release %d", c.name, nShards, g), ans.Estimate, want[i][g])
			}
		}
	}
}

// FuzzPrepare is the hostile-analyst target: arbitrary bytes through
// DB.Prepare on a DB with no rows, under each corpus row's options, never
// panic; and what prepares, prepares again from its own normalized SQL to the
// same normalized SQL — r2td's answer cache and single-flight key on p.SQL(),
// so the normalization must be idempotent.
func FuzzPrepare(f *testing.F) {
	corpus := pipelineCorpus()
	for i, c := range corpus {
		f.Add(c.sql, uint8(i))
	}
	db := NewDB(shopSchema())
	f.Fuzz(func(t *testing.T, sql string, row uint8) {
		opt := corpus[int(row)%len(corpus)].opt
		p, err := db.Prepare(sql, opt)
		if err != nil {
			return
		}
		p2, err := db.Prepare(p.SQL(), opt)
		if err != nil {
			t.Fatalf("normalized SQL %q of %q does not prepare: %v", p.SQL(), sql, err)
		}
		if p2.SQL() != p.SQL() {
			t.Fatalf("normalization is not idempotent: %q → %q → %q", sql, p.SQL(), p2.SQL())
		}
	})
}

// TestPrepareFailuresNeverCharge: every way the prepare stage can fail fails
// every entry point, and leaves a budget — and the ledger a charging caller
// appends to from the budget's commit hook — untouched.
func TestPrepareFailuresNeverCharge(t *testing.T) {
	ctx := context.Background()
	full, _ := buildShardedShop(t, rand.New(rand.NewSource(7)), 1)
	ok := Options{Epsilon: 1, GSQ: 64, Primary: []string{"Customer"}}
	with := func(f func(*Options)) Options {
		o := ok
		f(&o)
		return o
	}
	regions := []Value{Str("EU"), Str("US")}
	failures := []pipelineCase{
		{name: "ε ≤ 0", sql: gateCount, opt: with(func(o *Options) { o.Epsilon = 0 })},
		{name: "GSQ < 2", sql: gateCount, opt: with(func(o *Options) { o.GSQ = 1 })},
		{name: "β ≥ 1", sql: gateCount, opt: with(func(o *Options) { o.Beta = 1 })},
		{name: "no primary", sql: gateCount, opt: with(func(o *Options) { o.Primary = nil })},
		{name: "unknown mechanism", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "gaussian" })},
		{name: "naive + signed", sql: gateSigned, opt: with(func(o *Options) { o.Naive, o.AllowNegativeSum = true, true })},
		{name: "naive + laplace", sql: gateCount, opt: with(func(o *Options) { o.Naive, o.Mechanism = true, "laplace" })},
		{name: "target without auto", sql: gateCount, opt: with(func(o *Options) { o.ErrorTarget = 5 })},
		{name: "τ without fixed-tau", sql: gateCount, opt: with(func(o *Options) { o.FixedTau = 4 })},
		{name: "τ > GSQ", sql: gateCount, opt: with(func(o *Options) { o.Mechanism, o.FixedTau = "fixed-tau", 128 })},
		{name: "syntax error", sql: `SELECT COUNT(* FROM Orders`, opt: ok},
		{name: "unknown relation", sql: `SELECT COUNT(*) FROM Nowhere`, opt: ok},
		{name: "unknown column", sql: `SELECT COUNT(*) FROM Orders o WHERE o.nope = 1`, opt: ok},
		{name: "unknown primary", sql: gateCount, opt: with(func(o *Options) { o.Primary = []string{"Nobody"} })},
		{name: "ls on a self-join", sql: gateSelf, opt: with(func(o *Options) { o.Mechanism = "ls" })},
		{name: "ls on a projection", sql: gateDist, opt: with(func(o *Options) { o.Mechanism = "ls" })},
		{name: "ls with two primaries", sql: gateOrders, opt: with(func(o *Options) { o.Mechanism, o.Primary = "ls", []string{"Customer", "Catalog"} })},
		{name: "naive with two primaries", sql: gateOrders, opt: with(func(o *Options) { o.Naive, o.Primary = true, []string{"Customer", "Catalog"} })},
		{name: "naive on a self-join", sql: gateSelf, opt: with(func(o *Options) { o.Naive = true })},
		{name: "naive on a projection", sql: gateDist, opt: with(func(o *Options) { o.Naive = true })},
		{name: "laplace on a signed split", sql: gateSigned, opt: with(func(o *Options) { o.Mechanism, o.AllowNegativeSum = "laplace", true })},
		{name: "laplace under group-by", sql: gateCount, opt: with(func(o *Options) { o.Mechanism = "laplace" }), column: "c.region", groups: regions},
		{name: "no groups", sql: gateCount, opt: ok, column: "c.region", groups: []Value{}},
		{name: "duplicate group", sql: gateCount, opt: ok, column: "c.region", groups: []Value{Str("EU"), Str("EU")}},
		{name: "malformed column", sql: gateCount, opt: ok, column: "c.", groups: regions},
		{name: "unknown group column", sql: gateCount, opt: ok, column: "c.planet", groups: regions},
	}
	for _, f := range nonFiniteFields {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			failures = append(failures, pipelineCase{name: fmt.Sprintf("%s %g", f.name, v), sql: gateCount, opt: with(func(o *Options) { f.set(o, v) })})
		}
	}
	for _, c := range failures {
		budget := MustBudget(10)
		var ledger []string
		// admit is a charging caller written against the staged API, in the
		// order r2td uses: prepare, charge through the commit hook, then run.
		admit := func(p *Prepared, err error) error {
			if err != nil {
				return err
			}
			if err := budget.SpendWith(c.opt.Epsilon, func() error {
				ledger = append(ledger, p.SQL())
				return nil
			}); err != nil {
				return err
			}
			units, err := full.Evaluate(ctx, p)
			if err != nil {
				return err
			}
			_, err = p.Release(ctx, units, nil)
			return err
		}
		entry := map[string]func() error{}
		if c.groups != nil {
			gb := &groupSpec{column: c.column, values: c.groups}
			entry["QueryGroupBy"] = func() error { _, err := full.QueryGroupBy(c.sql, c.column, c.groups, c.opt); return err }
			entry["GroupPartials"] = func() error { _, err := full.GroupPartials(ctx, c.sql, c.column, c.groups, c.opt); return err }
			entry["staged"] = func() error { return admit(full.prepare(c.sql, c.opt, gb)) }
		} else {
			good := BatchQuery{SQL: gateCount, Opt: ok}
			entry["Query"] = func() error { _, err := full.Query(c.sql, c.opt); return err }
			entry["QueryWithBudget"] = func() error { _, err := full.QueryWithBudget(c.sql, c.opt, budget); return err }
			entry["QueryBatch"] = func() error {
				_, err := full.QueryBatch(ctx, []BatchQuery{good, {SQL: c.sql, Opt: c.opt}})
				return err
			}
			entry["QueryGroupBy"] = func() error { _, err := full.QueryGroupBy(c.sql, "c.region", regions, c.opt); return err }
			entry["Partials"] = func() error { _, err := full.Partials(ctx, c.sql, c.opt); return err }
			entry["staged"] = func() error { return admit(full.Prepare(c.sql, c.opt)) }
		}
		for name, call := range entry {
			if err := call(); err == nil {
				t.Errorf("%s: %s succeeded", c.name, name)
			}
		}
		if spent, rem := budget.Balance(); spent != 0 || rem != 10 || len(ledger) != 0 {
			t.Errorf("%s: a request that cannot be prepared charged: spent %g, remaining %g, ledger %q", c.name, spent, rem, ledger)
		}
	}
}
