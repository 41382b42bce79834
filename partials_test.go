package r2t

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"r2t/internal/core"
	"r2t/internal/mech"
	"r2t/internal/shard"
	"r2t/internal/truncation"
)

// shopSchema is the schema of buildShardedShop's instance.
func shopSchema() *Schema {
	return MustSchema(
		&Relation{Name: "Catalog", Attrs: []string{"sku"}, PK: "sku"},
		&Relation{Name: "Customer", Attrs: []string{"CK", "region"}, PK: "CK"},
		&Relation{Name: "Orders", Attrs: []string{"OK", "CK", "sku", "price"}, PK: "OK",
			FKs: []FK{{Attr: "CK", Ref: "Customer"}, {Attr: "sku", Ref: "Catalog"}}},
	)
}

// buildShardedShop generates one seeded shop instance twice: as a single
// unsharded DB and as nShards shard-local DBs populated through the shard
// routing rules (partitioned rows on their owner, broadcast rows everywhere).
func buildShardedShop(t *testing.T, rng *rand.Rand, nShards int) (*DB, []*DB) {
	t.Helper()
	s := shopSchema()
	routing, err := shard.NewRouting(s, "Customer")
	if err != nil {
		t.Fatal(err)
	}
	full := NewDB(s)
	shards := make([]*DB, nShards)
	for i := range shards {
		shards[i] = NewDB(s)
	}
	insert := func(rel string, vals ...Value) {
		t.Helper()
		if err := full.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
		owner, bc, err := routing.RouteRow(rel, vals, nShards)
		if err != nil {
			t.Fatal(err)
		}
		if bc {
			for _, sdb := range shards {
				if err := sdb.Insert(rel, vals...); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		if err := shards[owner].Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	const nSKU = 8
	for sku := int64(0); sku < nSKU; sku++ {
		insert("Catalog", Int(sku))
	}
	regions := []string{"EU", "US", "APAC"}
	ok := int64(0)
	for c := int64(0); c < 60; c++ {
		insert("Customer", Int(c), Str(regions[rng.Intn(len(regions))]))
		for o, n := 0, rng.Intn(5); o < n; o++ {
			insert("Orders", Int(ok), Int(c), Int(rng.Int63n(nSKU)), Int(rng.Int63n(101)-20))
			ok++
		}
	}
	if err := full.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for i, sdb := range shards {
		if err := sdb.CheckIntegrity(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return full, shards
}

// mergedUnits evaluates partialsOf on every shard and merges unit-by-unit:
// the router's gather step, minus the wire.
func mergedUnits(t *testing.T, shards []*DB, partialsOf func(*DB) (*QueryPartials, error)) []*truncation.PartitionTruncator {
	t.Helper()
	perShard := make([]*QueryPartials, len(shards))
	for i, sdb := range shards {
		qp, err := partialsOf(sdb)
		if err != nil {
			t.Fatalf("shard %d partials: %v", i, err)
		}
		perShard[i] = qp
	}
	n := len(perShard[0].Units)
	for i, qp := range perShard {
		if len(qp.Units) != n || qp.Signed != perShard[0].Signed {
			t.Fatalf("shard %d unit shape diverges: %d units signed=%v, shard 0 has %d signed=%v",
				i, len(qp.Units), qp.Signed, n, perShard[0].Signed)
		}
	}
	out := make([]*truncation.PartitionTruncator, n)
	for k := 0; k < n; k++ {
		parts := make([]*Partial, len(perShard))
		for i, qp := range perShard {
			parts[i] = qp.Units[k]
		}
		m, err := MergePartials(parts)
		if err != nil {
			t.Fatalf("merging unit %d: %v", k, err)
		}
		out[k] = m
	}
	return out
}

// releaseMerged runs the r2t backend over one merged operator, exactly as
// privatize does for the unsharded twin.
func releaseMerged(t *testing.T, m *truncation.PartitionTruncator, opt Options) float64 {
	t.Helper()
	be, ok := mech.ByName(mech.MechR2T)
	if !ok {
		t.Fatal("no r2t backend")
	}
	out, err := be.Run(m, mech.Params{
		Epsilon: opt.Epsilon,
		GSQ:     opt.GSQ,
		Beta:    opt.Beta,
		Noise:   opt.Noise,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Estimate
}

// releaseMergedSigned mirrors privatizeSigned: each half at ε/2, positive
// first, both off the same noise source.
func releaseMergedSigned(t *testing.T, pos, neg *truncation.PartitionTruncator, opt Options) float64 {
	t.Helper()
	cfg := core.Config{
		Epsilon:   opt.Epsilon / 2,
		Beta:      opt.Beta,
		GSQ:       opt.GSQ,
		Noise:     opt.Noise,
		EarlyStop: true,
	}
	outPos, err := core.Run(pos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outNeg, err := core.Run(neg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outPos.Estimate - outNeg.Estimate
}

// bitEqual requires exact floating-point identity, the sharding invariant for
// integer-ψ workloads (DESIGN.md §16).
func bitEqual(t *testing.T, label string, sharded, twin float64) {
	t.Helper()
	if math.Float64bits(sharded) != math.Float64bits(twin) {
		t.Errorf("%s: sharded release %v != unsharded %v (bits %x vs %x)",
			label, sharded, twin, math.Float64bits(sharded), math.Float64bits(twin))
	}
}

// TestShardedEquivalenceRandomized: seeded SJA workloads — COUNT, filtered
// SUM through a broadcast join, a signed-split SUM, and group-by in both
// flavors — over 1, 2 and 4 shards. With paired seeded noise sources the
// merged-partial release must be bitwise equal to the unsharded twin.
func TestShardedEquivalenceRandomized(t *testing.T) {
	const (
		countQ  = `SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`
		sumQ    = `SELECT SUM(o.price) FROM Customer c, Orders o, Catalog g WHERE c.CK = o.CK AND o.sku = g.sku AND o.price > 0`
		signedQ = `SELECT SUM(o.price) FROM Customer c, Orders o WHERE c.CK = o.CK`
	)
	groups := []Value{Str("EU"), Str("US"), Str("APAC")}
	for _, nShards := range []int{1, 2, 4} {
		for seed := int64(0); seed < 6; seed++ {
			full, shards := buildShardedShop(t, rand.New(rand.NewSource(seed)), nShards)
			base := Options{GSQ: 4096, Primary: []string{"Customer"}}
			noiseSeed := 1000*seed + int64(nShards)

			// Every workload must clear the router's static shardability gate.
			cols := map[string]string{"Customer": "CK", "Orders": "CK"}
			for _, q := range []string{countQ, sumQ, signedQ} {
				if err := full.ShardCheck(q, base.Primary, "Customer", cols); err != nil {
					t.Fatalf("ShardCheck(%s): %v", q, err)
				}
			}

			// COUNT.
			opt := base
			opt.Epsilon = 1
			opt.Noise = NewNoiseSource(noiseSeed)
			twin, err := full.Query(countQ, opt)
			if err != nil {
				t.Fatal(err)
			}
			units := mergedUnits(t, shards, func(sdb *DB) (*QueryPartials, error) {
				return sdb.Partials(context.Background(), countQ, opt)
			})
			if len(units) != 1 {
				t.Fatalf("count query has %d units", len(units))
			}
			if units[0].TrueAnswer() != twin.TrueAnswer {
				t.Fatalf("merged true answer %g != twin %g", units[0].TrueAnswer(), twin.TrueAnswer)
			}
			opt.Noise = NewNoiseSource(noiseSeed)
			bitEqual(t, "count", releaseMerged(t, units[0], opt), twin.Estimate)

			// Filtered SUM through the broadcast Catalog join.
			opt = base
			opt.Epsilon = 2
			opt.Noise = NewNoiseSource(noiseSeed + 1)
			twin, err = full.Query(sumQ, opt)
			if err != nil {
				t.Fatal(err)
			}
			units = mergedUnits(t, shards, func(sdb *DB) (*QueryPartials, error) {
				return sdb.Partials(context.Background(), sumQ, opt)
			})
			opt.Noise = NewNoiseSource(noiseSeed + 1)
			bitEqual(t, "sum", releaseMerged(t, units[0], opt), twin.Estimate)

			// Signed split: ε/2 per half, positive then negative.
			opt = base
			opt.Epsilon = 2
			opt.AllowNegativeSum = true
			opt.Noise = NewNoiseSource(noiseSeed + 2)
			twin, err = full.Query(signedQ, opt)
			if err != nil {
				t.Fatal(err)
			}
			units = mergedUnits(t, shards, func(sdb *DB) (*QueryPartials, error) {
				return sdb.Partials(context.Background(), signedQ, opt)
			})
			if len(units) != 2 {
				t.Fatalf("signed query has %d units", len(units))
			}
			opt.Noise = NewNoiseSource(noiseSeed + 2)
			bitEqual(t, "signed", releaseMergedSigned(t, units[0], units[1], opt), twin.Estimate)

			// Group-by: per-group ε, groups released in order off one source.
			opt = base
			opt.Epsilon = 3
			opt.Noise = NewNoiseSource(noiseSeed + 3)
			gout, err := full.QueryGroupBy(countQ, "c.region", groups, opt)
			if err != nil {
				t.Fatal(err)
			}
			units = mergedUnits(t, shards, func(sdb *DB) (*QueryPartials, error) {
				return sdb.GroupPartials(context.Background(), countQ, "c.region", groups, opt)
			})
			if len(units) != len(groups) {
				t.Fatalf("group-by has %d units, want %d", len(units), len(groups))
			}
			perGroup := opt
			perGroup.Epsilon = opt.Epsilon / float64(len(groups))
			perGroup.Noise = NewNoiseSource(noiseSeed + 3)
			for k := range groups {
				bitEqual(t, "group "+groups[k].S, releaseMerged(t, units[k], perGroup), gout[k].Answer.Estimate)
			}

			// Signed group-by: (positive, negative) unit pairs per group.
			opt = base
			opt.Epsilon = 3
			opt.AllowNegativeSum = true
			opt.Noise = NewNoiseSource(noiseSeed + 4)
			gout, err = full.QueryGroupBy(signedQ, "c.region", groups, opt)
			if err != nil {
				t.Fatal(err)
			}
			units = mergedUnits(t, shards, func(sdb *DB) (*QueryPartials, error) {
				return sdb.GroupPartials(context.Background(), signedQ, "c.region", groups, opt)
			})
			if len(units) != 2*len(groups) {
				t.Fatalf("signed group-by has %d units, want %d", len(units), 2*len(groups))
			}
			perGroup = opt
			perGroup.Epsilon = opt.Epsilon / float64(len(groups))
			perGroup.Noise = NewNoiseSource(noiseSeed + 4)
			for k := range groups {
				got := releaseMergedSigned(t, units[2*k], units[2*k+1], perGroup)
				bitEqual(t, "signed group "+groups[k].S, got, gout[k].Answer.Estimate)
			}
		}
	}
}

// TestPartialsGates: the partial-producing entry points reject the shapes the
// router must never scatter.
func TestPartialsGates(t *testing.T) {
	full, _ := buildShardedShop(t, rand.New(rand.NewSource(1)), 1)
	opt := Options{Epsilon: 1, GSQ: 64, Primary: []string{"Customer"}}
	ctx := context.Background()
	badMech := opt
	badMech.Mechanism = "laplace"
	if _, err := full.Partials(ctx, `SELECT COUNT(*) FROM Orders`, badMech); err == nil {
		t.Error("non-r2t mechanism must not produce partials")
	}
	if _, err := full.Partials(ctx, `SELECT COUNT(DISTINCT o.CK) FROM Orders o`, opt); err == nil {
		t.Error("projection query must not produce partials")
	}
	// Units that evaluate to another operator have no mergeable form: a
	// self-join builds the LP (a join result references two customers), and
	// Options.Naive the naive truncator. An error, never a panic (Partials has
	// no charge path at all).
	const selfJoin = `SELECT COUNT(*) FROM Orders a, Orders b WHERE a.sku = b.sku`
	if _, err := full.Partials(ctx, selfJoin, opt); err == nil || !strings.Contains(err.Error(), "not partition-shaped") {
		t.Errorf("self-join partials: err = %v, want not partition-shaped", err)
	}
	naive := opt
	naive.Naive = true
	if _, err := full.Partials(ctx, `SELECT COUNT(*) FROM Orders`, naive); err == nil || !strings.Contains(err.Error(), "not partition-shaped") {
		t.Errorf("naive partials: err = %v, want not partition-shaped", err)
	}
	if _, err := full.Partials(ctx, selfJoin, naive); err == nil {
		t.Error("naive self-join partials must fail")
	}
	if err := full.ShardCheck(`SELECT COUNT(*) FROM Catalog`, opt.Primary, "Customer",
		map[string]string{"Customer": "CK", "Orders": "CK"}); err == nil {
		t.Error("query without the partition relation must fail ShardCheck")
	}
	// Orders joined on a non-partition column spans shards.
	if err := full.ShardCheck(`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.OK`,
		opt.Primary, "Customer", map[string]string{"Customer": "CK", "Orders": "CK"}); err == nil {
		t.Error("join result spanning shards must fail ShardCheck")
	}
}
