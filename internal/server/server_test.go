package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"r2t"
)

// writeGraphDataset lays out a small node-DP graph dataset on disk: 10
// nodes, 15 edges (5 with src < dst among 0..4, plus hub edges).
func writeGraphDataset(t *testing.T) (schemaPath, dataDir string) {
	t.Helper()
	dir := t.TempDir()
	schemaPath = filepath.Join(dir, "graph.schema")
	if err := os.WriteFile(schemaPath, []byte("Node(ID*)\nEdge(src->Node, dst->Node)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var nodes bytes.Buffer
	nodes.WriteString("ID\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&nodes, "%d\n", i)
	}
	var edges bytes.Buffer
	edges.WriteString("src,dst\n")
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&edges, "%d,%d\n", i, (i+1)%5) // a 5-cycle
	}
	for i := 1; i < 10; i++ {
		fmt.Fprintf(&edges, "9,%d\n", i-1) // node 9 is a hub
	}
	if err := os.WriteFile(filepath.Join(dir, "Node.csv"), nodes.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Edge.csv"), edges.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return schemaPath, dir
}

func newGraphConfig(t *testing.T, ledgerPath string, eps float64) Config {
	t.Helper()
	schemaPath, dataDir := writeGraphDataset(t)
	return Config{
		Datasets: []DatasetConfig{{
			Name:       "graph",
			SchemaPath: schemaPath,
			DataDir:    dataDir,
			Epsilon:    eps,
			Primary:    []string{"Node"},
		}},
		LedgerPath: ledgerPath,
		Seed:       42,
	}
}

type testClient struct {
	t   *testing.T
	url string
}

func (c *testClient) query(body string) (int, queryResponse, errorResponse) {
	c.t.Helper()
	resp, err := http.Post(c.url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok queryResponse
	var fail errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
			c.t.Fatal(err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
			c.t.Fatal(err)
		}
	}
	return resp.StatusCode, ok, fail
}

func (c *testClient) get(path string) (int, string) {
	c.t.Helper()
	resp, err := http.Get(c.url + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestServerEndToEnd is the acceptance scenario: budget ε=1.0; the same
// query twice (second is a free cache replay with the identical estimate); a
// distinct query exhausting the budget; further queries refused; then a
// restart against the same ledger file, verifying spend survives.
func TestServerEndToEnd(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "budget.ledger")
	cfg := newGraphConfig(t, ledgerPath, 1.0)

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := &testClient{t: t, url: ts.URL}

	// Fresh release: charged 0.4.
	const q1 = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.4,"gsq":16}`
	code, r1, _ := c.query(q1)
	if code != http.StatusOK {
		t.Fatalf("first query: HTTP %d", code)
	}
	if r1.Cached || r1.EpsilonCharged != 0.4 || r1.EpsilonSpent != 0.4 {
		t.Fatalf("first release: %+v", r1)
	}

	// Same query, noisier spelling: normalized SQL must hit the cache —
	// zero additional ε, bit-identical estimate.
	const q1Again = `{"dataset":"graph","sql":"select  count(*)   from Edge","epsilon":0.4,"gsq":16}`
	code, r2, _ := c.query(q1Again)
	if code != http.StatusOK {
		t.Fatalf("replay: HTTP %d", code)
	}
	if !r2.Cached || r2.EpsilonCharged != 0 {
		t.Fatalf("replay should be a free cache hit: %+v", r2)
	}
	if r2.Estimate != r1.Estimate {
		t.Fatalf("replayed estimate %g != original %g", r2.Estimate, r1.Estimate)
	}
	if r2.EpsilonSpent != 0.4 {
		t.Fatalf("replay charged the budget: spent %g", r2.EpsilonSpent)
	}

	// A distinct query drains the rest of the budget.
	const q2 = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge WHERE src < dst","epsilon":0.6,"gsq":16}`
	code, r3, _ := c.query(q2)
	if code != http.StatusOK {
		t.Fatalf("second release: HTTP %d", code)
	}
	if r3.EpsilonSpent != 1.0 || r3.EpsilonRemaining != 0 {
		t.Fatalf("budget after drain: %+v", r3)
	}

	// Budget exhausted: new releases are refused with 402...
	const q3 = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge WHERE src = dst","epsilon":0.1,"gsq":16}`
	code, _, fail := c.query(q3)
	if code != http.StatusPaymentRequired || !strings.Contains(fail.Error, "budget exhausted") {
		t.Fatalf("exhausted query: HTTP %d, %+v", code, fail)
	}
	// ...but cached replays stay free and available.
	code, r4, _ := c.query(q1)
	if code != http.StatusOK || !r4.Cached || r4.EpsilonCharged != 0 || r4.Estimate != r1.Estimate {
		t.Fatalf("replay after exhaustion: HTTP %d, %+v", code, r4)
	}

	// Static failures and invalid options cost nothing and never reach the
	// ledger.
	for _, bad := range []string{
		`{"dataset":"graph","sql":"SELEKT garbage","epsilon":0.1,"gsq":16}`,
		`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":-1,"gsq":16}`,
		`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.1,"gsq":1}`,
		`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.1,"gsq":16,"beta":3}`,
	} {
		if code, _, _ := c.query(bad); code != http.StatusBadRequest {
			t.Fatalf("bad request %s: HTTP %d", bad, code)
		}
	}
	if code, _, _ := c.query(`{"dataset":"nope","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.1,"gsq":16}`); code != http.StatusNotFound {
		t.Fatal("unknown dataset should 404")
	}

	// /metrics reflects the accounting.
	code, metricsBody := c.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		`r2td_epsilon_spent{dataset="graph"} 1`,
		`r2td_epsilon_remaining{dataset="graph"} 0`,
		`r2td_queries_total{dataset="graph",status="ok"} 2`,
		`r2td_queries_total{dataset="graph",status="cache_hit"} 2`,
		`r2td_queries_total{dataset="graph",status="budget_exhausted"} 1`,
		`r2td_cache_answers 2`,
		`r2td_cache_hit_ratio{dataset="graph"} 0.5`,
		`r2td_request_seconds_count{dataset="graph"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q\n%s", want, metricsBody)
		}
	}

	// /v1/datasets shows the live balance.
	code, dsBody := c.get("/v1/datasets")
	if code != http.StatusOK || !strings.Contains(dsBody, `"epsilon_spent":1`) {
		t.Fatalf("/v1/datasets: HTTP %d, %s", code, dsBody)
	}

	// "Kill" the server and restart against the same ledger: spend survives.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	c2 := &testClient{t: t, url: ts2.URL}

	code, _, fail = c2.query(q3)
	if code != http.StatusPaymentRequired {
		t.Fatalf("restart forgot spent budget: HTTP %d, %+v", code, fail)
	}
	// The answer cache is in-memory only, so after a restart even a
	// previously released query needs budget again — and there is none.
	// The ledger (not the cache) is the source of truth for spend.
	code, _, _ = c2.query(q1)
	if code != http.StatusPaymentRequired {
		t.Fatalf("restart: replay without budget should 402, got HTTP %d", code)
	}
	code, dsBody = c2.get("/v1/datasets")
	if code != http.StatusOK || !strings.Contains(dsBody, `"epsilon_spent":1`) {
		t.Fatalf("/v1/datasets after restart: HTTP %d, %s", code, dsBody)
	}
}

// TestServerConcurrentClients hammers one server from many goroutines — a
// mix of identical (coalescing/cached) and distinct queries — and verifies
// the ledger-backed budget never overspends and ends exactly where the
// distinct-release count says it must. Run under -race (scripts/check.sh).
func TestServerConcurrentClients(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "budget.ledger")
	cfg := newGraphConfig(t, ledgerPath, 100)
	cfg.Workers = 8
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const (
		clients  = 16
		perEach  = 6
		distinct = 4 // src < 0, 1, 2, 3 — four distinct releases
		eps      = 0.25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perEach)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perEach; j++ {
				body := fmt.Sprintf(
					`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge WHERE src < %d","epsilon":%g,"gsq":16}`,
					(i+j)%distinct, eps)
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("HTTP %d", resp.StatusCode)
					return
				}
			}
			errCh <- nil
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Coalescing + caching guarantee exactly one charge per distinct
	// release, no matter how the 96 requests interleaved.
	ds := srv.reg.Get("graph")
	spent, _ := ds.Budget.Balance()
	if want := float64(distinct) * eps; spent != want {
		t.Fatalf("spent %g, want %g (one charge per distinct release)", spent, want)
	}
	// And the durable ledger agrees with the in-memory budget.
	l, replayed, err := OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if replayed["graph"] != spent {
		t.Fatalf("ledger says %g, budget says %g", replayed["graph"], spent)
	}
}

// TestServerAdmissionControl verifies 429 on worker-pool saturation: with
// every slot occupied, a fresh release is rejected, while cache replays
// still succeed (they need no slot).
func TestServerAdmissionControl(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "budget.ledger")
	cfg := newGraphConfig(t, ledgerPath, 10)
	cfg.Workers = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := &testClient{t: t, url: ts.URL}

	const q = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.5,"gsq":16}`
	if code, _, _ := c.query(q); code != http.StatusOK {
		t.Fatalf("warmup query: HTTP %d", code)
	}

	// Occupy both worker slots from the outside.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}

	code, _, fail := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge WHERE src = dst","epsilon":0.5,"gsq":16}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated release: HTTP %d, %+v", code, fail)
	}
	// Replays bypass the pool entirely.
	if code, r, _ := c.query(q); code != http.StatusOK || !r.Cached {
		t.Fatalf("saturated replay: HTTP %d, %+v", code, r)
	}
	<-srv.sem
	<-srv.sem
	if code, _, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge WHERE src = dst","epsilon":0.5,"gsq":16}`); code != http.StatusOK {
		t.Fatalf("post-drain release: HTTP %d", code)
	}
}

// TestServerStageMetricsAndRequestLog: a fresh release populates the
// per-stage latency series on /metrics, and every finished request — fresh,
// cached, failed — lands as one parseable JSON line in the operator request
// log, with stage timings only on the fresh run.
func TestServerStageMetricsAndRequestLog(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "budget.ledger")
	cfg := newGraphConfig(t, ledgerPath, 10)
	var logBuf bytes.Buffer
	cfg.RequestLog = &logBuf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noiseSources, newSource := 0, srv.noise
	srv.noise = func() r2t.NoiseSource { noiseSources++; return newSource() }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := &testClient{t: t, url: ts.URL}

	const q = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.5,"gsq":16}`
	if code, _, _ := c.query(q); code != http.StatusOK {
		t.Fatalf("fresh query: HTTP %d", code)
	}
	if code, r, _ := c.query(q); code != http.StatusOK || !r.Cached {
		t.Fatalf("cached query: HTTP %d", code)
	}
	if code, _, _ := c.query(`{"dataset":"graph","sql":"SELEKT","epsilon":0.1,"gsq":16}`); code != http.StatusBadRequest {
		t.Fatalf("bad query: HTTP %d", code)
	}
	// Only the charged run asks for a noise source; the replay and the
	// rejection never pay for seeding one.
	if noiseSources != 1 {
		t.Errorf("%d noise sources made for one fresh run, one replay and one 400; want 1", noiseSources)
	}

	// /metrics carries the aggregated stage series for the fresh run.
	code, body := c.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, stage := range []string{"parse", "plan", "exec", "lp-solve", "noise"} {
		want := fmt.Sprintf(`r2td_stage_seconds_total{dataset="graph",stage="%s"}`, stage)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s\n%s", want, body)
		}
		if !strings.Contains(body, fmt.Sprintf(`r2td_stage_count_total{dataset="graph",stage="%s"}`, stage)) {
			t.Errorf("/metrics missing count series for stage %s", stage)
		}
	}
	// The ledger exports the durable log's counters beside the table WALs':
	// one charge is one record and one fsync.
	for _, want := range []string{"r2td_ledger_appends_total 1\n", "r2td_ledger_fsyncs_total 1\n",
		"r2td_ledger_fsync_seconds_total ", "r2td_ledger_replay_records_total 0\n", "r2td_ledger_torn_bytes_total 0\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The request log has one JSON line per request, stages on the fresh run.
	lines := strings.Split(strings.TrimRight(logBuf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("request log has %d lines, want 3:\n%s", len(lines), logBuf.String())
	}
	type entry struct {
		Dataset string             `json:"dataset"`
		Status  string             `json:"status"`
		Code    int                `json:"code"`
		Cached  bool               `json:"cached"`
		Stages  map[string]float64 `json:"stage_ms"`
		Error   string             `json:"error"`
	}
	var es [3]entry
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &es[i]); err != nil {
			t.Fatalf("log line %d not JSON: %v\n%s", i, err, line)
		}
	}
	if es[0].Status != statusOK || len(es[0].Stages) == 0 {
		t.Errorf("fresh-run log entry missing stages: %+v", es[0])
	}
	if es[1].Status != statusCacheHit || !es[1].Cached || len(es[1].Stages) != 0 {
		t.Errorf("cache-hit log entry: %+v", es[1])
	}
	if es[2].Code != http.StatusBadRequest || es[2].Error == "" {
		t.Errorf("failure log entry: %+v", es[2])
	}

	// A second server over the same ledger replays the charge and says so.
	cfg.RequestLog = nil
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var m2 strings.Builder
	srv2.metrics.writeTo(&m2, srv2.reg, srv2.cache, srv2.ledger, srv2.repl)
	for _, want := range []string{"r2td_ledger_appends_total 0\n", "r2td_ledger_replay_records_total 1\n"} {
		if !strings.Contains(m2.String(), want) {
			t.Errorf("restarted /metrics missing %q", want)
		}
	}
}

// TestServerDeadline: an unmeetable request deadline yields 504, and the
// charge (made before the mechanism ran) stands — documented behavior, since
// the noise was already drawn.
func TestServerDeadline(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "budget.ledger")
	cfg := newGraphConfig(t, ledgerPath, 10)
	cfg.RequestTimeout = time.Nanosecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := &testClient{t: t, url: ts.URL}

	code, _, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.5,"gsq":16}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: HTTP %d", code)
	}
}

// TestServerJoinShare drives three distinct releases (different aggregates
// and ε, so three fingerprints and three fresh mechanism runs) over one join
// structure: with sharing on they must run exactly one probe pass, with
// sharing disabled on the dataset's DB (SetJoinShareCap(0)) they must still
// release the identical estimates — join sharing is invisible in every
// analyst-facing byte, it only removes redundant executor work (DESIGN.md §12).
func TestServerJoinShare(t *testing.T) {
	queries := []string{
		`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src","epsilon":0.5,"gsq":64}`,
		`{"dataset":"graph","sql":"SELECT SUM(e1.src) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src","epsilon":0.5,"gsq":64}`,
		`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge e1, Edge e2 WHERE e1.dst = e2.src","epsilon":0.25,"gsq":64}`,
	}
	run := func(share bool) ([]float64, string) {
		cfg := newGraphConfig(t, filepath.Join(t.TempDir(), "budget.ledger"), 10)
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !share {
			srv.reg.Get("graph").DB.SetJoinShareCap(0)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		c := &testClient{t: t, url: ts.URL}
		ests := make([]float64, 0, len(queries))
		for _, q := range queries {
			code, ok, fail := c.query(q)
			if code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", code, fail.Error)
			}
			if ok.Cached {
				t.Fatalf("distinct release answered from the replay cache: %s", q)
			}
			ests = append(ests, ok.Estimate)
		}
		_, metricsBody := c.get("/metrics")
		return ests, metricsBody
	}

	shared, sharedMetrics := run(true)
	unshared, unsharedMetrics := run(false)
	for i := range shared {
		if shared[i] != unshared[i] {
			t.Errorf("query %d: shared estimate %v differs from unshared %v", i, shared[i], unshared[i])
		}
	}
	for _, want := range []string{
		`r2td_join_core_cache_misses_total{dataset="graph"} 1`,
		`r2td_join_core_cache_hits_total{dataset="graph"} 2`,
		`r2td_join_core_cache_entries{dataset="graph"} 1`,
	} {
		if !strings.Contains(sharedMetrics, want) {
			t.Errorf("shared /metrics missing %q", want)
		}
	}
	for _, want := range []string{
		`r2td_join_core_cache_misses_total{dataset="graph"} 0`,
		`r2td_join_core_cache_hits_total{dataset="graph"} 0`,
		`r2td_answer_cache_evictions_total 0`,
	} {
		if !strings.Contains(unsharedMetrics, want) {
			t.Errorf("unshared /metrics missing %q", want)
		}
	}
}
