package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"r2t/internal/schema"
	"r2t/internal/schemadesc"
	"r2t/internal/shard"
	"r2t/internal/storage"
	"r2t/internal/tpch"
	"r2t/internal/value"
)

// dataset is one generated instance plus what a server needs to host it. The
// server only ever sees the CSV + schema files writeDataset leaves on disk;
// inst stays in the bench as the twin the truths and layer spans run on.
type dataset struct {
	name       string // dataset name in requests
	schemaText string
	inst       *storage.Instance
	primary    []string
	gsq        float64
}

const (
	tpchSchemaText = `Region(RK*, rname)
Nation(NK*, RK->Region, nname)
Supplier(SK*, NK->Nation, sacctbal)
Customer(CK*, NK->Nation, mktsegment, cacctbal)
Part(PKEY*, brand, ptype, psize, retail)
PartSupp(PKEY->Part, SK->Supplier, availqty, supplycost)
Orders(OK*, CK->Customer, odate, opriority)
Lineitem(OK->Orders, PKEY->Part, SK->Supplier, qty, price, discount, sdate, cdate, rdate, shipmode, returnflag)
`
	shopSchemaText = `Catalog(sku*)
Customer(CK*, region)
Orders(OK*, CK->Customer, sku->Catalog, price)
`
	tpchGSQ = 1e5
	tpchEps = 0.8
	shopGSQ = 4096
	shopEps = 0.5
	// epsTotal is every dataset's lifetime budget: large enough that no
	// request in any workload can be a 402.
	epsTotal = 1e9

	shopSKUs      = 64
	appendRows    = 8  // Orders rows per /v1/append request
	shopMaxOrders = 40 // per-customer fan-out cap
)

var shopRegions = []string{"EU", "US", "APAC", "LATAM"}

func genTPCH(sf float64, seed int64) *dataset {
	return &dataset{
		name:       "tpch",
		schemaText: tpchSchemaText,
		inst:       tpch.Generate(tpch.GenOptions{SF: sf, Seed: seed}),
		gsq:        tpchGSQ,
	}
}

func shopSchema() *schema.Schema {
	s, err := schemadesc.Parse("shop", shopSchemaText)
	if err != nil {
		panic(err) // the text is a constant of this file
	}
	return s
}

// genShop builds the sharding tests' shop schema at benchmark size: customers
// with an order fan-out of min(40, Exp(5)), 64 SKUs, prices in [1,100] so
// every SUM is a non-negative integer.
func genShop(customers int, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	inst := storage.NewInstance(shopSchema())
	for i := 0; i < shopSKUs; i++ {
		inst.MustInsert("Catalog", storage.Row{value.StringV(skuName(i))})
	}
	ok := int64(0)
	for ck := 0; ck < customers; ck++ {
		inst.MustInsert("Customer", shopCustomer(rng, int64(ck)))
		n := int(rng.ExpFloat64() * 5)
		if n > shopMaxOrders {
			n = shopMaxOrders
		}
		for ; n > 0; n-- {
			inst.MustInsert("Orders", shopOrder(rng, ok, int64(ck)))
			ok++
		}
	}
	return &dataset{name: "shop", schemaText: shopSchemaText, inst: inst, primary: []string{"Customer"}, gsq: shopGSQ}
}

func skuName(i int) string { return "sku" + strconv.Itoa(i) }

func shopCustomer(rng *rand.Rand, ck int64) storage.Row {
	return storage.Row{value.IntV(ck), value.StringV(shopRegions[rng.Intn(len(shopRegions))])}
}

func shopOrder(rng *rand.Rand, ok, ck int64) storage.Row {
	return storage.Row{value.IntV(ok), value.IntV(ck), value.StringV(skuName(rng.Intn(shopSKUs))), value.IntV(int64(1 + rng.Intn(100)))}
}

// splitShop partitions a shop dataset the way a deployment loader would:
// customers and orders by shard.OwnerOf on their CK (exactly what the router
// computes), the broadcast catalog replicated whole.
func splitShop(d *dataset, n int) []*dataset {
	parts := make([]*dataset, n)
	for i := range parts {
		p := *d
		p.inst = storage.NewInstance(shopSchema())
		rows, _ := d.inst.Table("Catalog").Snapshot()
		p.inst.MustInsert("Catalog", rows...)
		parts[i] = &p
	}
	// Customers first: an Orders row needs its Customer present (FK order).
	for _, t := range []struct {
		rel   string
		ckCol int
	}{{"Customer", 0}, {"Orders", 1}} {
		rows, _ := d.inst.Table(t.rel).Snapshot()
		for _, row := range rows {
			parts[shard.OwnerOf(row[t.ckCol], n)].inst.MustInsert(t.rel, row)
		}
	}
	return parts
}

// writeDataset leaves <dir>/<name>.schema and one <Relation>.csv per table:
// the only form in which a server under test ever sees the data.
func writeDataset(d *dataset, dir string) (schemaPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for _, rel := range d.inst.Schema.Names() {
		if err := d.inst.WriteCSVFile(rel, filepath.Join(dir, rel+".csv")); err != nil {
			return "", err
		}
	}
	schemaPath = filepath.Join(dir, d.name+".schema")
	return schemaPath, os.WriteFile(schemaPath, []byte(d.schemaText), 0o644)
}

// request is one entry of a workload's fixed, seed-derived request list.
type request struct {
	class    string // classFresh, classReplay, classAppend, classReject
	path     string // "/v1/query" or "/v1/append"
	body     []byte
	appendID string // X-R2T-Append-Id, appends only

	// What the twin needs to re-walk the request.
	sql      string
	primary  []string
	eps      float64
	relation string        // append target
	rows     []storage.Row // append payload, parsed

	wantCode   int
	wantCached bool
}

const (
	classFresh  = "fresh"
	classReplay = "replay"
	classAppend = "append"
	classReject = "reject"
)

type queryBody struct {
	Dataset   string   `json:"dataset"`
	SQL       string   `json:"sql"`
	Epsilon   float64  `json:"epsilon"`
	GSQ       float64  `json:"gsq"`
	Primary   []string `json:"primary,omitempty"`
	Mechanism string   `json:"mechanism,omitempty"`
}

func queryRequest(d *dataset, class, sqlText string, primary []string, eps float64, mechanism string) request {
	if primary == nil {
		primary = d.primary
	}
	body, _ := json.Marshal(queryBody{Dataset: d.name, SQL: sqlText, Epsilon: eps, GSQ: d.gsq, Primary: primary, Mechanism: mechanism})
	r := request{class: class, path: "/v1/query", body: body, sql: sqlText, primary: primary, eps: eps, wantCode: 200}
	switch class {
	case classReplay:
		r.wantCached = true
	case classReject:
		r.wantCode = 400
	}
	return r
}

// asReplay returns the request re-issued as a free replay of itself.
func (r request) asReplay() request {
	r.class, r.wantCached = classReplay, true
	return r
}

// freshEps returns a distinct ε per k, so the k-th fresh request over a hot
// SQL text misses the answer cache while every other parameter stays put.
func freshEps(base float64, k int) float64 { return base + float64(k)/(1<<20) }

// tpchRound renders the ten Fig. 5 queries for round r. Each query shifts one
// numeric literal by r (Q21 and Q18, which have none, gain a date floor), so
// every round misses both the answer cache and the join-core cache while the
// work per round stays within a fraction of a percent.
func tpchRound(d *dataset, r int) []request {
	shift := func(base int) string { return strconv.Itoa(base + r) }
	sqls := map[string]string{
		"Q3": `SELECT COUNT(*) FROM Customer c, Orders o, Lineitem l WHERE c.CK = o.CK AND o.OK = l.OK
			AND c.mktsegment = 'BUILDING' AND o.odate < 1800 AND l.sdate > ` + shift(600),
		"Q12": `SELECT COUNT(*) FROM Orders o, Lineitem l WHERE o.OK = l.OK AND l.shipmode IN ('MAIL', 'SHIP')
			AND l.cdate < l.rdate AND l.rdate BETWEEN ` + shift(600) + ` AND 1999`,
		"Q20": `SELECT COUNT(*) FROM Supplier s, PartSupp ps, Part p WHERE s.SK = ps.SK AND ps.PKEY = p.PKEY
			AND p.psize < 25 AND ps.availqty > ` + shift(100),
		"Q5": `SELECT COUNT(*) FROM Customer c, Orders o, Lineitem l, Supplier s, Nation n, Region r
			WHERE c.CK = o.CK AND o.OK = l.OK AND l.SK = s.SK AND c.NK = s.NK AND s.NK = n.NK AND n.RK = r.RK
			AND r.rname = 'ASIA' AND o.odate < 1600 AND o.odate >= ` + shift(200),
		"Q8": `SELECT COUNT(*) FROM Part p, Lineitem l, Supplier s, Orders o, Customer c, Nation n, Region r
			WHERE p.PKEY = l.PKEY AND l.SK = s.SK AND l.OK = o.OK AND o.CK = c.CK AND c.NK = n.NK AND n.RK = r.RK
			AND r.rname = 'AMERICA' AND o.odate < 2000 AND p.ptype < 12 AND o.odate >= ` + shift(400),
		"Q21": `SELECT COUNT(*) FROM Supplier s, Lineitem l1, Lineitem l2, Orders o
			WHERE s.SK = l1.SK AND o.OK = l1.OK AND l2.OK = l1.OK AND l2.SK <> l1.SK
			AND l1.rdate > l1.cdate AND o.opriority = '1-URGENT' AND o.odate >= ` + shift(0),
		"Q7": `SELECT SUM(l.price * (1 - l.discount)) FROM Supplier s, Lineitem l, Orders o, Customer c, Nation n1, Nation n2
			WHERE s.SK = l.SK AND l.OK = o.OK AND o.CK = c.CK AND s.NK = n1.NK AND c.NK = n2.NK AND n1.RK = n2.RK
			AND l.sdate < 2200 AND l.sdate >= ` + shift(200),
		"Q11": `SELECT SUM(ps.supplycost * ps.availqty) FROM PartSupp ps, Supplier s
			WHERE ps.SK = s.SK AND ps.availqty > ` + shift(20),
		"Q18": `SELECT SUM(l.qty) FROM Customer c, Orders o, Lineitem l
			WHERE c.CK = o.CK AND o.OK = l.OK AND o.opriority = '1-URGENT' AND o.odate >= ` + shift(0),
		"Q10": `SELECT COUNT(DISTINCT c.CK) FROM Customer c, Orders o, Lineitem l WHERE c.CK = o.CK AND o.OK = l.OK
			AND l.returnflag = 'R' AND o.odate < 1800 AND o.odate >= ` + shift(600),
	}
	var out []request
	for _, q := range tpch.Queries() {
		text := strings.Join(strings.Fields(sqls[q.Name]), " ")
		out = append(out, queryRequest(d, classFresh, text, q.Primary, tpchEps, ""))
	}
	return out
}

// shopHotSQL is the hot set's SQL family: five join shapes (FROM/WHERE) with
// two aggregates each, so the ten texts share five join cores.
func shopHotSQL() []string {
	shapes := []string{
		"FROM Customer c, Orders o WHERE c.CK = o.CK",
		"FROM Customer c, Orders o, Catalog g WHERE c.CK = o.CK AND o.sku = g.sku AND o.price > 50",
		"FROM Customer c, Orders o WHERE c.CK = o.CK AND c.region = 'EU'",
		"FROM Customer c, Orders o WHERE c.CK = o.CK AND o.price <= 20",
		"FROM Customer c, Orders o, Catalog g WHERE c.CK = o.CK AND o.sku = g.sku AND c.region = 'US' AND o.price > 10",
	}
	var out []string
	for _, s := range shapes {
		out = append(out, "SELECT COUNT(*) "+s, "SELECT SUM(o.price) "+s)
	}
	return out
}

// shopColdSQL is the k-th cold query: a predicate constant no earlier request
// used, so its join signature misses the core cache, over (nearly) the whole
// Customer ⋈ Orders join.
func shopColdSQL(k int) string {
	agg := "COUNT(*)"
	if k%2 == 1 {
		agg = "SUM(o.price)"
	}
	return fmt.Sprintf("SELECT %s FROM Customer c, Orders o WHERE c.CK = o.CK AND o.OK >= %d", agg, k+1)
}

// chargeStormRequests: n fresh requests over 4 hot SQL texts, each with its
// own ε — an answer-cache miss, a join-core hit, a ledger record, a replica ack.
func chargeStormRequests(d *dataset, n int) []request {
	hot := shopHotSQL()[:4]
	out := make([]request, n)
	for k := range out {
		out[k] = queryRequest(d, classFresh, hot[k%len(hot)], nil, freshEps(shopEps, k+1), "")
	}
	return out
}

// scatterRequests: n fresh requests, alternating a cold join and a hot one.
func scatterRequests(d *dataset, n int) []request {
	hot := shopHotSQL()[:4]
	out := make([]request, n)
	for k := range out {
		sqlText := hot[(k/2)%len(hot)]
		if k%2 == 0 {
			sqlText = shopColdSQL(k / 2)
		}
		out[k] = queryRequest(d, classFresh, sqlText, nil, freshEps(shopEps, k+1), "")
	}
	return out
}

// shopHotSet is serve-mixed's pre-charged hot set: every hot SQL text at
// perSQL distinct ε values.
func shopHotSet(d *dataset, perSQL int) []request {
	var out []request
	for j := 0; j < perSQL; j++ {
		for _, s := range shopHotSQL() {
			out = append(out, queryRequest(d, classFresh, s, nil, shopEps+float64(j)/64, ""))
		}
	}
	return out
}

// mixBlock is serve-mixed's mix, exactly, per 20 requests: 10 replays, 4
// fresh-hot, 2 fresh-cold, 2 appends, 2 rejects, in this fixed order. The
// order is not shuffled per seed: how many hot join cores an append stales
// before the next fresh-hot request depends on it, and with it the work a
// list carries.
var mixBlock = []string{
	classReplay, "fresh-hot", classReplay, classAppend, classReplay, "fresh-cold", classReplay, classReject, classReplay, "fresh-hot",
	classReplay, classAppend, classReplay, "fresh-cold", classReplay, classReject, classReplay, "fresh-hot", classReplay, "fresh-hot",
}

// serveMixedRequests builds n requests in blocks of mixBlock: 50% replay
// (Zipf 1.1 over the hot set), 20% fresh-hot (the hot SQL texts in turn, new
// ε), 10% fresh-cold (new predicate constant), 10% append (alternately 8
// Orders rows and 8 new customers), 10% reject (half unknown column, half
// inapplicable mechanism). The seed picks the replays and the rows; two seeds
// differ in content, not in how much work they carry.
func serveMixedRequests(d *dataset, hotSet []request, n int, seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hotSet)-1))
	hot := shopHotSQL()
	next := map[string]int64{"Orders": int64(d.inst.Table("Orders").Len()), "Customer": int64(d.inst.Table("Customer").Len())}
	out := make([]request, 0, n)
	fresh, cold, appends, rejects := 0, 0, 0, 0
	for len(out) < n {
		switch mixBlock[len(out)%len(mixBlock)] {
		case classReplay:
			out = append(out, hotSet[zipf.Uint64()].asReplay())
		case "fresh-hot":
			fresh++
			out = append(out, queryRequest(d, classFresh, hot[fresh%len(hot)], nil, freshEps(shopEps+1, fresh), ""))
		case "fresh-cold":
			out = append(out, queryRequest(d, classFresh, shopColdSQL(cold), nil, shopEps, ""))
			cold++
		case classAppend:
			appends++
			rel := "Orders"
			if appends%2 == 0 {
				rel = "Customer"
			}
			out = append(out, appendRequest(d, rng, rel, next[rel], fmt.Sprintf("bench-%d-%d", seed, appends)))
			next[rel] += appendRows
		case classReject:
			rejects++
			if rejects%2 == 0 {
				out = append(out, queryRequest(d, classReject, "SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK AND o.nosuch > 1", nil, shopEps, ""))
			} else {
				out = append(out, queryRequest(d, classReject, "SELECT COUNT(DISTINCT o.sku) FROM Customer c, Orders o WHERE c.CK = o.CK", nil, shopEps, "ls"))
			}
		}
	}
	return out
}

// appendRequest is one /v1/append of appendRows new rows of rel ("Orders",
// for random existing customers, or "Customer"), keyed firstKey onward.
func appendRequest(d *dataset, rng *rand.Rand, rel string, firstKey int64, id string) request {
	customers := d.inst.Table("Customer").Len()
	rows := make([]storage.Row, appendRows)
	text := make([][]string, appendRows)
	for i := range rows {
		if rel == "Orders" {
			rows[i] = shopOrder(rng, firstKey+int64(i), int64(rng.Intn(customers)))
		} else {
			rows[i] = shopCustomer(rng, firstKey+int64(i))
		}
		text[i] = make([]string, len(rows[i]))
		for c, v := range rows[i] {
			text[i][c] = v.String()
		}
	}
	body, _ := json.Marshal(map[string]any{"dataset": d.name, "relation": rel, "rows": text})
	return request{class: classAppend, path: "/v1/append", body: body, appendID: id, relation: rel, rows: rows, wantCode: 200}
}

// rowSkew is max/mean of the shards' Orders row counts: 1 = perfectly even.
func rowSkew(parts []*dataset) float64 {
	maxRows, total := 0, 0
	for _, p := range parts {
		n := p.inst.Table("Orders").Len()
		total += n
		maxRows = max(maxRows, n)
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(maxRows) * float64(len(parts)) / float64(total)
}
