package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"r2t/internal/fault"
	"r2t/internal/shard"
	"r2t/internal/value"
)

// --- fixture: the "shop" dataset -------------------------------------------
//
// Customer is the partition (and privacy) relation; Orders routes by its CK
// foreign key; Catalog has no FK path to Customer and is broadcast. Prices
// are small signed integers, so every aggregate in these tests stays in the
// integer-exact float regime and "bit-equal" is a meaningful assertion.

type shopData struct {
	catalog   [][]string // sku
	customers [][]string // CK, region
	orders    [][]string // OK, CK, sku, price
}

func genShop(seed int64) shopData {
	rng := rand.New(rand.NewSource(seed))
	var d shopData
	for i := 0; i < 8; i++ {
		d.catalog = append(d.catalog, []string{fmt.Sprintf("sku%d", i)})
	}
	regions := []string{"EU", "US", "APAC"}
	ok := 0
	for ck := 0; ck < 60; ck++ {
		d.customers = append(d.customers, []string{fmt.Sprintf("%d", ck), regions[rng.Intn(len(regions))]})
		for j := rng.Intn(5); j > 0; j-- {
			d.orders = append(d.orders, []string{
				fmt.Sprintf("%d", ok),
				fmt.Sprintf("%d", ck),
				fmt.Sprintf("sku%d", rng.Intn(8)),
				fmt.Sprintf("%d", rng.Int63n(101)-20),
			})
			ok++
		}
	}
	return d
}

// shardShop splits d the way a deployment loader would: customers and orders
// by the hash of their CK (shard.OwnerOf on the parsed value, exactly what
// the router computes), the broadcast catalog replicated whole.
func shardShop(d shopData, n int) []shopData {
	parts := make([]shopData, n)
	for i := range parts {
		parts[i].catalog = d.catalog
	}
	for _, row := range d.customers {
		o := shard.OwnerOf(value.Parse(row[0]), n)
		parts[o].customers = append(parts[o].customers, row)
	}
	for _, row := range d.orders {
		o := shard.OwnerOf(value.Parse(row[1]), n)
		parts[o].orders = append(parts[o].orders, row)
	}
	return parts
}

func writeShopSchema(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shop.schema")
	src := "Catalog(sku*)\nCustomer(CK*, region)\nOrders(OK*, CK->Customer, sku->Catalog, price)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeShopDir(t testing.TB, d shopData) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, header string, rows [][]string) {
		var buf bytes.Buffer
		buf.WriteString(header + "\n")
		for _, r := range rows {
			buf.WriteString(strings.Join(r, ",") + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Catalog", "sku", d.catalog)
	write("Customer", "CK,region", d.customers)
	write("Orders", "OK,CK,sku,price", d.orders)
	return dir
}

// --- cluster helpers --------------------------------------------------------

func shopConfig(t testing.TB, nodeDir, name, schemaPath, dataDir string, seed int64) Config {
	t.Helper()
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return Config{
		Datasets: []DatasetConfig{{
			Name:       "shop",
			SchemaPath: schemaPath,
			DataDir:    dataDir,
			Epsilon:    1000,
			Primary:    []string{"Customer"},
		}},
		LedgerPath: filepath.Join(nodeDir, "budget.ledger"),
		Seed:       seed,
		NodeName:   name,
	}
}

// startShardServer starts one shard: a normal primary with its slice of the
// rows, serving sub-queries on its replication listener. replListen is
// normally "127.0.0.1:0"; chaos restarts pass the address the previous
// incarnation owned so the router's fixed shard map stays valid.
func startShardServer(t *testing.T, base, name, schemaPath, dataDir, replListen string) *replNode {
	t.Helper()
	cfg := shopConfig(t, filepath.Join(base, name), name, schemaPath, dataDir, 1)
	cfg.Role = RolePrimary
	cfg.ReplListen = replListen
	var srv *Server
	var err error
	// A restart re-binds the port the killed incarnation just released;
	// retry briefly instead of racing the kernel.
	for deadline := time.Now().Add(10 * time.Second); ; {
		srv, err = New(cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("starting shard %s: %v", name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts := httptest.NewServer(srv.Handler())
	return &replNode{name: name, srv: srv, ts: ts, c: &testClient{t: t, url: ts.URL}, ledgerPath: cfg.LedgerPath}
}

// startRouter starts the router tier over the given shard servers.
func startRouter(t *testing.T, base, schemaPath string, shards []*replNode, eps float64) *replNode {
	t.Helper()
	nodes := make([]shard.Node, len(shards))
	for i, sh := range shards {
		nodes[i] = shard.Node{Name: sh.name, Addr: sh.srv.ReplAddr()}
	}
	return startRouterAt(t, base, schemaPath, nodes, eps)
}

func startRouterAt(t *testing.T, base, schemaPath string, nodes []shard.Node, eps float64) *replNode {
	t.Helper()
	nodeDir := filepath.Join(base, "router")
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Datasets: []DatasetConfig{{
			Name:       "shop",
			SchemaPath: schemaPath,
			Epsilon:    eps,
			Primary:    []string{"Customer"},
			Partition:  "Customer",
			Shards:     nodes,
		}},
		LedgerPath:   filepath.Join(nodeDir, "budget.ledger"),
		Seed:         42,
		NodeName:     "router",
		Role:         RoleRouter,
		ShardTimeout: 2 * time.Second,
		RequestLog:   new(bytes.Buffer),
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("starting router: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &replNode{name: "router", srv: srv, ts: ts, c: &testClient{t: t, url: ts.URL}, ledgerPath: cfg.LedgerPath,
		reqLog: cfg.RequestLog.(*bytes.Buffer)}
}

// routerLog parses the router's operator request log, one entry per request.
func routerLog(t *testing.T, router *replNode) []requestLogEntry {
	t.Helper()
	var out []requestLogEntry
	for _, line := range strings.Split(strings.TrimRight(router.reqLog.String(), "\n"), "\n") {
		var e requestLogEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("request log line not JSON: %v\n%s", err, line)
		}
		out = append(out, e)
	}
	return out
}

// startTwin starts the unsharded single-node twin: same schema, the union of
// all rows, and the same noise seed as the router, so running the same query
// sequence must reproduce the router's released answers bit for bit.
func startTwin(t *testing.T, base, schemaPath, dataDir string) *replNode {
	t.Helper()
	cfg := shopConfig(t, filepath.Join(base, "twin"), "twin", schemaPath, dataDir, 42)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("starting twin: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &replNode{name: "twin", srv: srv, ts: ts, c: &testClient{t: t, url: ts.URL}, ledgerPath: cfg.LedgerPath}
}

func queryBody(sqlText string, eps float64) string {
	return fmt.Sprintf(`{"dataset":"shop","sql":%q,"epsilon":%g,"gsq":256,"mechanism":"r2t"}`, sqlText, eps)
}

// --- tests ------------------------------------------------------------------

// TestShardedEquivalence is the headline guarantee: for 1, 2, and 4 shards,
// the router's released answers are bitwise-equal to an unsharded twin
// evaluating the same query sequence on the union of the rows with the same
// noise seed. Nothing about sharding may perturb the release — not the
// truncation, not the noise draws, not the order of anything.
func TestShardedEquivalence(t *testing.T) {
	schemaPath := writeShopSchema(t)
	data := genShop(7)
	fullDir := writeShopDir(t, data)

	queries := []string{
		"SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK",
		"SELECT SUM(o.price) FROM Customer c, Orders o, Catalog g WHERE c.CK = o.CK AND o.sku = g.sku AND o.price > 0",
		"SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK AND o.price > 10",
	}

	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			base := t.TempDir()
			var shards []*replNode
			for i, part := range shardShop(data, nShards) {
				sh := startShardServer(t, base, fmt.Sprintf("s%d", i), schemaPath, writeShopDir(t, part), "127.0.0.1:0")
				defer sh.stop()
				shards = append(shards, sh)
			}
			router := startRouter(t, base, schemaPath, shards, 1000)
			defer router.stop()
			twin := startTwin(t, base, schemaPath, fullDir)
			defer twin.stop()

			for _, q := range queries {
				code, rr, rfail := router.c.query(queryBody(q, 0.5))
				if code != http.StatusOK {
					t.Fatalf("router %q: code %d: %s", q, code, rfail.Error)
				}
				code, tr, _ := twin.c.query(queryBody(q, 0.5))
				if code != http.StatusOK {
					t.Fatalf("twin %q: code %d", q, code)
				}
				if math.Float64bits(rr.Estimate) != math.Float64bits(tr.Estimate) {
					t.Fatalf("%q: router %v != twin %v (not bit-equal)", q, rr.Estimate, tr.Estimate)
				}
				if rr.Mechanism != "r2t" {
					t.Fatalf("%q: mechanism %q", q, rr.Mechanism)
				}
				// Same respondQuery: the whole body matches the twin's, budget
				// balances included, apart from the wall clock.
				rr.ElapsedMS, tr.ElapsedMS = 0, 0
				if rr != tr {
					t.Fatalf("%q: router body %+v != twin body %+v", q, rr, tr)
				}
			}

			// Released answers replay from the cache for free, like any node.
			code, rr, _ := router.c.query(queryBody(queries[0], 0.5))
			if code != http.StatusOK || !rr.Cached || rr.EpsilonCharged != 0 {
				t.Fatalf("router replay: code %d cached %v charged %g", code, rr.Cached, rr.EpsilonCharged)
			}

			// Scatter/gather health is on /metrics, both sides of the wire.
			_, rm := router.c.get("/metrics")
			for _, want := range []string{
				fmt.Sprintf(`r2td_shards{dataset="shop"} %d`, nShards),
				`r2td_shard_scatters_total{dataset="shop"} 3`,
				`r2td_shard_scatter_failures_total{dataset="shop"} 0`,
			} {
				if !strings.Contains(rm, want) {
					t.Errorf("router /metrics missing %q", want)
				}
			}
			_, sm := shards[0].c.get("/metrics")
			if !strings.Contains(sm, "r2td_shard_subqueries_served_total") {
				t.Errorf("shard /metrics missing r2td_shard_subqueries_served_total")
			}

			// A sharded release runs the router's half of the pipeline —
			// prepare, the partial merge, the races, the noise — and reports it
			// like a local one: stage series on /metrics, stage_ms on each fresh
			// request's log line (and on no replay's). The join ran on the shards.
			routerStages := []string{"parse", "plan", "truncation-build", "lp-solve", "noise"}
			for _, stage := range routerStages {
				if want := fmt.Sprintf(`r2td_stage_count_total{dataset="shop",stage="%s"} %d`, stage, len(queries)); !strings.Contains(rm, want) {
					t.Errorf("router /metrics missing %q", want)
				}
			}
			log := routerLog(t, router)
			if len(log) != len(queries)+1 {
				t.Fatalf("router request log has %d entries, want %d", len(log), len(queries)+1)
			}
			for i, e := range log {
				if i == len(queries) {
					if e.Status != statusCacheHit || len(e.Stages) != 0 {
						t.Errorf("replay log entry: %+v", e)
					}
					continue
				}
				if _, ran := e.Stages["exec"]; e.Status != statusOK || len(e.Stages) != len(routerStages) || ran {
					t.Errorf("fresh sharded log entry %d: %+v", i, e)
				}
			}
		})
	}
}

// TestRouterAppendRouting: the router holds no rows, so appends bounce — with
// the owning shard named in X-R2T-Shard when it is well-defined.
func TestRouterAppendRouting(t *testing.T) {
	schemaPath := writeShopSchema(t)
	data := genShop(11)
	base := t.TempDir()
	var shards []*replNode
	for i, part := range shardShop(data, 2) {
		sh := startShardServer(t, base, fmt.Sprintf("s%d", i), schemaPath, writeShopDir(t, part), "127.0.0.1:0")
		defer sh.stop()
		shards = append(shards, sh)
	}
	router := startRouter(t, base, schemaPath, shards, 1000)
	defer router.stop()

	post := func(body string) *http.Response {
		resp, err := http.Post(router.ts.URL+"/v1/append", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Rows for one customer: 409 naming the shard that owns CK=5.
	owner := shards[shard.OwnerOf(value.Parse("5"), 2)].name
	resp := post(`{"dataset":"shop","relation":"Orders","rows":[["900","5","sku1","3"],["901","5","sku2","4"]]}`)
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("X-R2T-Shard") != owner {
		t.Fatalf("partitioned append: code %d X-R2T-Shard %q, want 409 %q", resp.StatusCode, resp.Header.Get("X-R2T-Shard"), owner)
	}

	// Rows spanning owners: still 409, but no single shard to name.
	ck2 := "6"
	for i := 6; shard.OwnerOf(value.Parse(ck2), 2) == shard.OwnerOf(value.Parse("5"), 2); i++ {
		ck2 = fmt.Sprintf("%d", i)
	}
	resp = post(fmt.Sprintf(`{"dataset":"shop","relation":"Orders","rows":[["902","5","sku1","3"],["903",%q,"sku2","4"]]}`, ck2))
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("X-R2T-Shard") != "" {
		t.Fatalf("mixed-owner append: code %d X-R2T-Shard %q, want 409 with no header", resp.StatusCode, resp.Header.Get("X-R2T-Shard"))
	}

	// Broadcast relations have no owning shard at all: plain 400.
	resp = post(`{"dataset":"shop","relation":"Catalog","rows":[["sku9"]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broadcast append: code %d, want 400", resp.StatusCode)
	}

	// Unknown relations stay 400 too.
	resp = post(`{"dataset":"shop","relation":"Nope","rows":[["1"]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown relation append: code %d, want 400", resp.StatusCode)
	}
}

// TestRouterGates: every structural rejection on the router is a charge-free
// 400 — the ledger must stay empty through all of them.
func TestRouterGates(t *testing.T) {
	schemaPath := writeShopSchema(t)
	data := genShop(13)
	base := t.TempDir()
	sh := startShardServer(t, base, "s0", schemaPath, writeShopDir(t, data), "127.0.0.1:0")
	defer sh.stop()
	router := startRouter(t, base, schemaPath, []*replNode{sh}, 1000)
	defer router.stop()

	cases := []struct {
		name, body string
	}{
		{"non-r2t mechanism", `{"dataset":"shop","sql":"SELECT COUNT(*) FROM Orders o","epsilon":0.5,"gsq":256,"mechanism":"laplace"}`},
		{"wrong primary", `{"dataset":"shop","sql":"SELECT COUNT(*) FROM Orders o","epsilon":0.5,"gsq":256,"mechanism":"r2t","primary":["Catalog"]}`},
		{"join off the partition key", `{"dataset":"shop","sql":"SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.OK","epsilon":0.5,"gsq":256,"mechanism":"r2t"}`},
	}
	for _, c := range cases {
		code, _, fail := router.c.query(c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d (%s), want 400", c.name, code, fail.Error)
		}
	}
	if fps, eps, _ := parseLedgerFile(t, router.ledgerPath); len(fps) != 0 || eps != 0 {
		t.Fatalf("gates charged: %d records, ε=%g", len(fps), eps)
	}
	// The gates fail through the same path as a local 400: counted as
	// invalid, logged with their cause, no stages.
	if _, rm := router.c.get("/metrics"); !strings.Contains(rm, fmt.Sprintf(`r2td_queries_total{dataset="shop",status="invalid"} %d`, len(cases))) {
		t.Errorf("router /metrics does not count the gates as invalid:\n%s", rm)
	}
	for i, e := range routerLog(t, router) {
		if e.Status != statusInvalid || e.Code != http.StatusBadRequest || e.Error == "" || len(e.Stages) != 0 {
			t.Errorf("%s: log entry %+v", cases[i].name, e)
		}
	}

	// Past the gates a sharded request runs the leader closure local requests
	// run, so it is covered by the same recover and the same classifyError: a
	// panic in the commit hook is a uniform 500 with nothing admitted, and a
	// full worker pool is a 429 with Retry-After.
	defer fault.Reset()
	fault.Enable("ledger.write", fault.Rule{Panic: "torn page"})
	good := queryBody("SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK", 0.5)
	code, _, fail := router.c.query(good)
	if code != http.StatusInternalServerError || fail.Error != errInternal.Error() {
		t.Fatalf("panicking sharded charge: HTTP %d, %+v", code, fail)
	}
	if spent := router.srv.reg.Get("shop").Budget.Spent(); spent != 0 {
		t.Fatalf("charge admitted despite the panicking commit hook: spent %g", spent)
	}
	fault.Reset()
	if _, rm := router.c.get("/metrics"); !strings.Contains(rm, "r2td_panics_recovered_total 1") {
		t.Errorf("router /metrics should count the recovered panic")
	}
	for i := 0; i < cap(router.srv.sem); i++ {
		router.srv.sem <- struct{}{}
	}
	resp, err := http.Post(router.ts.URL+"/v1/query", "application/json", strings.NewReader(
		queryBody("SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK AND o.price > 1", 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != retryAfterBusy {
		t.Fatalf("saturated router: HTTP %d Retry-After %q, want 429/%s", resp.StatusCode, resp.Header.Get("Retry-After"), retryAfterBusy)
	}
}

// TestRouterChargeOnScatterFailure pins the dark side of charge-before-
// scatter: a dead shard costs the analyst the ε (no refunds — a refund would
// let failed runs probe for free) and returns 503 + Retry-After, and the
// failure is NOT cached, so a retry charges again.
func TestRouterChargeOnScatterFailure(t *testing.T) {
	schemaPath := writeShopSchema(t)
	base := t.TempDir()
	// Port 1 is never listening: every scatter fails at dial.
	router := startRouterAt(t, base, schemaPath, []shard.Node{{Name: "dead", Addr: "127.0.0.1:1"}}, 10)
	defer router.stop()

	const q = `{"dataset":"shop","sql":"SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK","epsilon":0.5,"gsq":256,"mechanism":"r2t"}`
	for i := 1; i <= 2; i++ {
		resp, err := http.Post(router.ts.URL+"/v1/query", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfterOutage {
			t.Fatalf("attempt %d: code %d Retry-After %q, want 503/%s", i, resp.StatusCode, resp.Header.Get("Retry-After"), retryAfterOutage)
		}
		if spent := router.srv.reg.Get("shop").Budget.Spent(); spent != 0.5*float64(i) {
			t.Fatalf("attempt %d: spent %g, want %g", i, spent, 0.5*float64(i))
		}
	}
	fps, eps, _ := parseLedgerFile(t, router.ledgerPath)
	if len(fps) != 1 || eps != 1.0 {
		t.Fatalf("ledger: %d fingerprints ε=%g, want 1 fingerprint (same query) ε=1.0", len(fps), eps)
	}
	_, rm := router.c.get("/metrics")
	if !strings.Contains(rm, `r2td_shard_scatter_failures_total{dataset="shop"} 2`) {
		t.Errorf("router /metrics missing scatter failure count:\n%s", rm)
	}
}

// TestChaosShardKill is the sharding acceptance gate: 30 epochs of queries
// against a 2-shard cluster while shards are killed mid-query and restarted.
// Invariants, checked at the end against the router's own ledger file:
//
//   - the router never double-charges: exactly one ledger record per admitted
//     request, and spent ε equals admitted × ε exactly;
//   - a failed scatter is a 503 with Retry-After — charged, never cached;
//   - every successful release is bitwise-equal to an unsharded twin
//     replaying the same successful query sequence with the same noise seed.
func TestChaosShardKill(t *testing.T) {
	schemaPath := writeShopSchema(t)
	data := genShop(23)
	fullDir := writeShopDir(t, data)
	base := t.TempDir()

	parts := shardShop(data, 2)
	dirs := make([]string, 2)
	shards := make([]*replNode, 2)
	addrs := make([]string, 2)
	for i, part := range parts {
		dirs[i] = writeShopDir(t, part)
		shards[i] = startShardServer(t, base, fmt.Sprintf("s%d", i), schemaPath, dirs[i], "127.0.0.1:0")
		addrs[i] = shards[i].srv.ReplAddr()
	}
	defer func() {
		for _, sh := range shards {
			sh.stop()
		}
	}()
	router := startRouter(t, base, schemaPath, shards, 1000)
	defer router.stop()

	const epochs = 30
	const eps = 0.25
	rng := rand.New(rand.NewSource(99))
	type release struct {
		sql      string
		estimate float64
	}
	var released []release

	for epoch := 0; epoch < epochs; epoch++ {
		// Fresh SQL every epoch: a repeat would replay from the answer cache,
		// charging nothing and drawing no noise, which would silently weaken
		// the double-charge assertions below.
		sqlText := fmt.Sprintf("SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK AND o.OK < %d", 5+epoch*4)
		body := queryBody(sqlText, eps)

		// Two kill flavours: killBefore downs the shard before the request is
		// even sent (the scatter MUST fail: deterministic 503 coverage);
		// killMid races the in-flight scatter (either outcome is legal, and
		// both invariants must hold whichever side wins).
		killBefore := epoch%6 == 1
		killMid := epoch%6 == 4
		victim := -1
		if killBefore {
			victim = rng.Intn(2)
			shards[victim].stop()
		}
		done := make(chan *http.Response, 1)
		errc := make(chan error, 1)
		go func() {
			resp, err := http.Post(router.ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			done <- resp
		}()
		if killMid {
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			victim = rng.Intn(2)
			shards[victim].stop()
		}
		var resp *http.Response
		select {
		case resp = <-done:
		case err := <-errc:
			t.Fatalf("epoch %d: transport error: %v", epoch, err)
		case <-time.After(15 * time.Second):
			t.Fatalf("epoch %d: query timed out", epoch)
		}
		var qr queryResponse
		if resp.StatusCode == http.StatusOK {
			if killBefore {
				t.Fatalf("epoch %d: scatter against a downed shard succeeded", epoch)
			}
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			released = append(released, release{sqlText, qr.Estimate})
		} else if resp.StatusCode == http.StatusServiceUnavailable {
			if !killBefore && !killMid {
				t.Fatalf("epoch %d: healthy cluster answered 503", epoch)
			}
			if got := resp.Header.Get("Retry-After"); got != retryAfterOutage {
				t.Fatalf("epoch %d: 503 without Retry-After hint (got %q)", epoch, got)
			}
		} else {
			t.Fatalf("epoch %d: unexpected code %d", epoch, resp.StatusCode)
		}
		resp.Body.Close()

		if victim >= 0 {
			// Restart the victim from the same CSVs on the same address the
			// router's fixed shard map points at, and wait until it serves.
			shards[victim] = startShardServer(t, base, fmt.Sprintf("s%d-e%d", victim, epoch), schemaPath, dirs[victim], addrs[victim])
			waitForCond(t, "restarted shard /readyz", func() bool {
				code, _ := shards[victim].c.get("/readyz")
				return code == http.StatusOK
			})
		}
	}

	// ε accounting: every epoch admitted exactly one charge (fresh SQL each
	// time), success or scatter failure alike. One ledger record per request,
	// no double-charges, no refunds, spent within budget.
	fps, total, maxEpoch := parseLedgerFile(t, router.ledgerPath)
	if len(fps) != epochs {
		t.Fatalf("ledger has %d charge records, want %d (one per admitted request)", len(fps), epochs)
	}
	if want := eps * epochs; total != want {
		t.Fatalf("ledger ε total %g, want exactly %g", total, want)
	}
	if spent := router.srv.reg.Get("shop").Budget.Spent(); spent != eps*epochs || spent > 1000 {
		t.Fatalf("budget spent %g, want %g within budget", spent, eps*epochs)
	}
	if maxEpoch != 0 {
		t.Fatalf("router ledger carries fencing epoch %d, want none (routers are replication-standalone)", maxEpoch)
	}
	if len(released) == 0 {
		t.Fatal("no successful releases in 30 epochs")
	}

	// Bit-equality: an unsharded twin with the same seed replays the same
	// SUCCESSFUL query sequence (failed scatters drew no noise on the router,
	// so they do not shift the draw stream) and must match every release.
	twin := startTwin(t, base, schemaPath, fullDir)
	defer twin.stop()
	for i, rel := range released {
		code, tr, fail := twin.c.query(queryBody(rel.sql, eps))
		if code != http.StatusOK {
			t.Fatalf("twin replay %d %q: code %d: %s", i, rel.sql, code, fail.Error)
		}
		if math.Float64bits(tr.Estimate) != math.Float64bits(rel.estimate) {
			t.Fatalf("replay %d %q: twin %v != router %v (not bit-equal)", i, rel.sql, tr.Estimate, rel.estimate)
		}
	}
	t.Logf("chaos: %d/%d epochs released, %d shards killed-and-restarted, all bit-equal", len(released), epochs, epochs/3)
}
