package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"r2t/internal/fault"
	"r2t/internal/repl"
	"r2t/internal/wal"
)

// replNodeConfig builds one cluster node's Config: the shared graph dataset
// (same schema and seed CSVs on every node, as a real deployment would ship),
// with the node's own WAL directory and ledger file under nodeDir.
func replNodeConfig(t *testing.T, schemaPath, dataDir, nodeDir, node string) Config {
	t.Helper()
	return Config{
		Datasets: []DatasetConfig{{
			Name:       "graph",
			SchemaPath: schemaPath,
			DataDir:    dataDir,
			Epsilon:    1000,
			Primary:    []string{"Node"},
			DurableDir: filepath.Join(nodeDir, "wal"),
		}},
		LedgerPath: filepath.Join(nodeDir, "budget.ledger"),
		Seed:       42,
		NodeName:   node,
	}
}

// replNode is one running cluster member.
type replNode struct {
	name       string
	srv        *Server
	ts         *httptest.Server
	c          *testClient
	ledgerPath string
	reqLog     *bytes.Buffer // routers only: the operator request log
}

func startReplNode(t *testing.T, schemaPath, dataDir, base, name, role, primaryAddr string, syncReplicas int) *replNode {
	t.Helper()
	nodeDir := filepath.Join(base, name)
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := replNodeConfig(t, schemaPath, dataDir, nodeDir, name)
	cfg.Role = role
	cfg.ReplListen = "127.0.0.1:0"
	cfg.PrimaryAddr = primaryAddr
	cfg.SyncReplicas = syncReplicas
	cfg.ReplAckTimeout = 2 * time.Second
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("starting node %s: %v", name, err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &replNode{
		name:       name,
		srv:        srv,
		ts:         ts,
		c:          &testClient{t: t, url: ts.URL},
		ledgerPath: cfg.LedgerPath,
	}
}

func (n *replNode) stop() {
	n.ts.Close()
	n.srv.Close()
}

// promote POSTs /v1/promote and returns the HTTP code and claimed epoch.
func (n *replNode) promote(t *testing.T) (int, uint64) {
	t.Helper()
	resp, err := http.Post(n.ts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Epoch
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitReplicaReady polls the replica's /readyz until it reports caught up.
func waitReplicaReady(t *testing.T, n *replNode) {
	t.Helper()
	waitForCond(t, n.name+" /readyz", func() bool {
		code, _ := n.c.get("/readyz")
		return code == http.StatusOK
	})
}

// ledgerRecords is a node's ledger record count.
func ledgerRecords(n *replNode) uint64 {
	_, records, _ := n.srv.ledger.Position()
	return records
}

// parseLedgerFile replays a ledger file and returns its charge fingerprints,
// total charged ε, and the highest fencing epoch.
func parseLedgerFile(t *testing.T, path string) (fps map[string]bool, totalEps float64, maxEpoch uint64) {
	t.Helper()
	fps = make(map[string]bool)
	log, err := wal.Open(path, ledgerLog, func(_ int64, p []byte) error {
		e, err := parseLedgerEntry(p)
		switch {
		case err != nil:
			return err
		case e.Kind == "":
			fps[e.Fingerprint] = true
			totalEps += e.Epsilon
		case e.Kind == KindEpoch:
			maxEpoch = max(maxEpoch, e.Epoch)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ledger %s: %v", path, err)
	}
	log.Close()
	return fps, totalEps, maxEpoch
}

// TestReplicationCatchUpServeAndPromote is the replication acceptance
// scenario on one primary + one replica: ledger catch-up and live streaming,
// free replays served replica-side, charge redirection, append rejection,
// replicated budget accounting, operator promotion, and fencing of the old
// primary.
func TestReplicationCatchUpServeAndPromote(t *testing.T) {
	schemaPath, dataDir := writeGraphDataset(t)
	base := t.TempDir()

	// Async replication here (SyncReplicas=0) so the primary can charge
	// before and after the replica exists; the chaos test covers minSync.
	a := startReplNode(t, schemaPath, dataDir, base, "a", RolePrimary, "", 0)
	defer a.stop()

	// A charge before the replica exists: the replica must receive it via
	// handshake catch-up, not live streaming.
	const q1 = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.5,"gsq":16}`
	code, r1, _ := a.c.query(q1)
	if code != http.StatusOK || r1.Cached {
		t.Fatalf("primary query: code %d cached %v", code, r1.Cached)
	}

	b := startReplNode(t, schemaPath, dataDir, base, "b", RoleReplica, a.srv.ReplAddr(), 0)
	defer b.stop()
	waitReplicaReady(t, b)

	// Catch-up must have replicated the charge into b's ledger and budget.
	waitForCond(t, "ledger catch-up", func() bool {
		return ledgerRecords(b) == ledgerRecords(a)
	})
	if spent := b.srv.reg.Get("graph").Budget.Spent(); spent < 0.5 {
		t.Fatalf("replica budget spent = %g, want >= 0.5", spent)
	}

	// A live charge streams; its released answer must become servable on b.
	code, r2, _ := a.c.query(q1) // identical → free cache replay on a
	if code != http.StatusOK || !r2.Cached {
		t.Fatalf("primary replay: code %d cached %v", code, r2.Cached)
	}
	const q2 = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge WHERE src < dst","epsilon":0.5,"gsq":16}`
	code, r3, _ := a.c.query(q2)
	if code != http.StatusOK || r3.Cached {
		t.Fatalf("primary fresh query: code %d cached %v", code, r3.Cached)
	}
	waitForCond(t, "answer replication", func() bool {
		code, br, _ := b.c.query(q2)
		return code == http.StatusOK && br.Cached && br.EpsilonCharged == 0
	})
	code, br, _ := b.c.query(q2)
	if code != http.StatusOK || br.Estimate != r3.Estimate {
		t.Fatalf("replica replay: code %d estimate %g, want %g", code, br.Estimate, r3.Estimate)
	}
	// The same fingerprint replays with the same body on either node —
	// mechanism and budget balances included — apart from the wall clock.
	code, ar, _ := a.c.query(q2)
	ar.ElapsedMS, br.ElapsedMS = 0, 0
	if code != http.StatusOK || ar != br {
		t.Fatalf("replay bodies diverge:\n primary %+v\n replica %+v", ar, br)
	}

	// A query the replica has no recorded release for redirects to the
	// primary instead of charging.
	const q3 = `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.5,"gsq":999}`
	resp, err := http.Post(b.ts.URL+"/v1/query", "application/json", strings.NewReader(q3))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replica charge: %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get("X-R2T-Primary"); got != a.srv.ReplAddr() {
		t.Fatalf("X-R2T-Primary = %q, want %q", got, a.srv.ReplAddr())
	}

	// Appends are writes: redirected too, and the redirect target rides the
	// same header as the query path.
	aresp, err := http.Post(b.ts.URL+"/v1/append", "application/json",
		strings.NewReader(`{"dataset":"graph","relation":"Edge","rows":[["0","7"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusConflict {
		t.Fatalf("replica append: %d, want 409", aresp.StatusCode)
	}
	if got := aresp.Header.Get("X-R2T-Primary"); got != a.srv.ReplAddr() {
		t.Fatalf("append X-R2T-Primary = %q, want %q", got, a.srv.ReplAddr())
	}

	// Rows appended on the primary replicate.
	code, _, _ = a.c.append(`{"dataset":"graph","relation":"Edge","rows":[["0","7"],["3","9"]]}`)
	if code != http.StatusOK {
		t.Fatalf("primary append: %d", code)
	}
	wantRows := a.srv.reg.Get("graph").DB.Instance().Table("Edge").Len()
	waitForCond(t, "row replication", func() bool {
		return b.srv.reg.Get("graph").DB.Instance().Table("Edge").Len() == wantRows
	})

	// Replication health is exposed on both sides.
	_, am := a.c.get("/metrics")
	for _, want := range []string{"r2td_repl_role{role=\"primary\"} 1", "r2td_repl_epoch 1", "r2td_repl_attached_replicas 1", "r2td_repl_lag_records{peer=\"b\"}", "r2td_repl_disconnects_total"} {
		if !strings.Contains(am, want) {
			t.Errorf("primary /metrics missing %q", want)
		}
	}
	_, bm := b.c.get("/metrics")
	for _, want := range []string{"r2td_repl_role{role=\"replica\"} 1", "r2td_repl_epoch 1", "r2td_repl_connected 1", "r2td_repl_caught_up 1", "r2td_repl_lag_records 0"} {
		if !strings.Contains(bm, want) {
			t.Errorf("replica /metrics missing %q", want)
		}
	}

	// Promotion: b claims epoch 2 and starts admitting charges.
	pcode, epoch := b.promote(t)
	if pcode != http.StatusOK || epoch != 2 {
		t.Fatalf("promote: code %d epoch %d, want 200/2", pcode, epoch)
	}
	if pcode, _ := b.promote(t); pcode != http.StatusConflict {
		t.Fatalf("second promote: %d, want 409 (already primary)", pcode)
	}
	code, pr, _ := b.c.query(q3)
	if code != http.StatusOK || pr.Cached {
		t.Fatalf("promoted primary charge: code %d cached %v", code, pr.Cached)
	}

	// Fencing: when the old primary learns of the new reign (a replica
	// carrying epoch 2 handshakes), it permanently refuses charges. Drive
	// the handshake directly — no timing, pure protocol.
	if _, _, err := (*replSource)(a.srv).Handshake(repl.Hello{Node: "b", Epoch: 2}); err == nil {
		t.Fatal("handshake with a newer epoch should be refused")
	}
	if !a.srv.repl.fenced.Load() {
		t.Fatal("old primary should be fenced after seeing epoch 2")
	}
	code, _, fe := a.c.query(q3)
	if code != http.StatusConflict || !strings.Contains(fe.Error, "fenced") {
		t.Fatalf("fenced primary charge: code %d err %q, want 409 fenced", code, fe.Error)
	}
	if code, _ := a.c.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("fenced primary /readyz: %d, want 503", code)
	}
}

// TestChaosFailoverPromotion is the failover chaos suite: 30 fencing epochs,
// each one the life of a primary — it admits synchronously replicated charges
// and appends, suffers an injected storage or network fault mid-charge, and
// is killed; its replica is promoted and a fresh replica joins. Invariants
// checked every epoch and at the end:
//
//   - a replica's ledger is always a bitwise prefix of its dead primary's
//     (the structural no-split-brain property);
//   - every admitted charge's fingerprint survives into the final ledger, and
//     the surviving ledger's spend only ever overcounts (never undercounts)
//     what was admitted;
//   - promotion advances the fencing epoch by exactly one per failover, and a
//     replayed copy of the final ledger agrees.
func TestChaosFailoverPromotion(t *testing.T) {
	defer fault.Reset()
	const epochs = 30
	schemaPath, dataDir := writeGraphDataset(t)
	base := t.TempDir()

	admitted := make(map[string]float64) // fingerprint → ε actually admitted (200)
	var admittedEps float64

	cur := startReplNode(t, schemaPath, dataDir, base, "n01", RolePrimary, "", 1)
	for g := 1; g <= epochs; g++ {
		rep := startReplNode(t, schemaPath, dataDir, base, fmt.Sprintf("n%02d", g+1), RoleReplica, cur.srv.ReplAddr(), 1)
		waitReplicaReady(t, rep)

		// Admitted charges: distinct GS_Q per charge so every one is a fresh
		// release with its own fingerprint. SyncReplicas=1 means each 200
		// implies the replica acknowledged the charge's ledger record.
		for i := 0; i < 2+g%3; i++ {
			gsq := float64(1000*g + i + 16)
			body := fmt.Sprintf(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.25,"gsq":%g}`, gsq)
			code, r, fe := cur.c.query(body)
			if code != http.StatusOK {
				t.Fatalf("epoch %d charge %d: code %d (%s)", g, i, code, fe.Error)
			}
			key := fingerprint("graph", r.Query, 0.25, gsq, 0.1, []string{"Node"}, "", 0, 0)
			admitted[key] = 0.25
			admittedEps += 0.25
		}
		if code, _, fe := cur.c.append(`{"dataset":"graph","relation":"Edge","rows":[["0","7"],["3","9"]]}`); code != http.StatusOK {
			t.Fatalf("epoch %d append: code %d (%s)", g, code, fe.Error)
		}

		// Quiesce: the replica must hold everything the primary admitted
		// before the fault window opens (so the fault can only hurt the
		// doomed, unadmitted charge below).
		waitForCond(t, "ledger drain", func() bool {
			return ledgerRecords(rep) == ledgerRecords(cur)
		})
		wantRows := cur.srv.reg.Get("graph").DB.Instance().Table("Edge").Len()
		waitForCond(t, "row drain", func() bool {
			return rep.srv.reg.Get("graph").DB.Instance().Table("Edge").Len() == wantRows
		})

		// The fault window: kill the primary mid-charge, a different way each
		// epoch — fsync failure, torn write, network partition, panic between
		// write and sync. The charge must be refused; whether its bytes
		// landed locally may vary (overcounting is the safe side), but it
		// must never be admitted.
		switch g % 4 {
		case 0:
			fault.Enable("ledger.sync", fault.Rule{Err: errors.New("chaos: fsync died")})
		case 1:
			fault.Enable("ledger.write", fault.Rule{Err: errors.New("chaos: torn write"), Short: 3})
		case 2:
			fault.Enable(repl.SiteSend, fault.Rule{Err: errors.New("chaos: partition")})
		case 3:
			fault.Enable("ledger.write", fault.Rule{Panic: "chaos: panic mid-append"})
		}
		doomed := fmt.Sprintf(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.25,"gsq":%d}`, 1000*g+999)
		if code, _, _ := cur.c.query(doomed); code == http.StatusOK {
			t.Fatalf("epoch %d: charge admitted during fault %d", g, g%4)
		}
		fault.Reset()

		// Kill the primary; check the structural invariant on the corpses:
		// the replica's ledger is a bitwise prefix of the dead primary's.
		cur.stop()
		aBytes, err := os.ReadFile(cur.ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		bBytes, err := os.ReadFile(rep.ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(bBytes) > len(aBytes) || !bytes.Equal(aBytes[:len(bBytes)], bBytes) {
			t.Fatalf("epoch %d: replica ledger (%d bytes) is not a prefix of the primary's (%d bytes)", g, len(bBytes), len(aBytes))
		}

		// Operator failover: promote the replica; epochs advance one per
		// reign, never reused, never skipped.
		pcode, epoch := rep.promote(t)
		if pcode != http.StatusOK {
			t.Fatalf("epoch %d promote: code %d", g, pcode)
		}
		if epoch != uint64(g+1) {
			t.Fatalf("epoch %d promote: claimed epoch %d, want %d", g, epoch, g+1)
		}
		cur = rep
	}

	// Final accounting on the last surviving node's ledger.
	cur.stop()
	fps, ledgerEps, maxEpoch := parseLedgerFile(t, cur.ledgerPath)
	for key := range admitted {
		if !fps[key] {
			t.Fatalf("admitted charge %s missing from the surviving ledger", key[:16])
		}
	}
	if ledgerEps+1e-9 < admittedEps {
		t.Fatalf("surviving ledger records %g ε, less than the %g admitted (undercount!)", ledgerEps, admittedEps)
	}
	if admittedEps > 1000 {
		t.Fatalf("admitted %g ε, more than the 1000 budget", admittedEps)
	}
	if maxEpoch != epochs+1 {
		t.Fatalf("final ledger max epoch = %d, want %d", maxEpoch, epochs+1)
	}
	// A cold replay of the surviving ledger agrees with the live view.
	l, spent, err := OpenLedger(cur.ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.ReplayedEpoch() != epochs+1 {
		t.Fatalf("replayed epoch = %d, want %d", l.ReplayedEpoch(), epochs+1)
	}
	if spent["graph"]+1e-9 < admittedEps {
		t.Fatalf("replayed spend %g < admitted %g", spent["graph"], admittedEps)
	}
}

// TestRetryAfterOnEvery503 asserts the Retry-After satellite: every 503 the
// service can emit carries the hint, on the query, append, and readiness
// paths.
func TestRetryAfterOnEvery503(t *testing.T) {
	defer fault.Reset()
	base := t.TempDir()
	cfg := durableGraphConfig(t, filepath.Join(base, "l.ledger"), filepath.Join(base, "wal"))
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Query path: poison the ledger (fsync failure on the charge append).
	fault.Enable("ledger.sync", fault.Rule{Err: errors.New("disk died")})
	resp := post("/v1/query", `{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":0.1,"gsq":16}`)
	fault.Reset()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfterOutage {
		t.Fatalf("query on poisoned ledger: code %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Readiness follows (the ledger stays poisoned until reopen).
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || rresp.Header.Get("Retry-After") != retryAfterOutage {
		t.Fatalf("/readyz on poisoned ledger: code %d Retry-After %q", rresp.StatusCode, rresp.Header.Get("Retry-After"))
	}

	// Append path: poison the segstore WAL.
	fault.Enable("segstore.sync", fault.Rule{Err: errors.New("disk died")})
	aresp := post("/v1/append", `{"dataset":"graph","relation":"Edge","rows":[["0","7"]]}`)
	fault.Reset()
	if aresp.StatusCode != http.StatusServiceUnavailable || aresp.Header.Get("Retry-After") != retryAfterOutage {
		t.Fatalf("append on poisoned store: code %d Retry-After %q", aresp.StatusCode, aresp.Header.Get("Retry-After"))
	}

	// Replica catching up (its primary doesn't exist) is 503 with a hint
	// scaled from its actual lag — zero records behind means the shortest one.
	schemaPath, dataDir := writeGraphDataset(t)
	b := startReplNode(t, schemaPath, dataDir, base, "lonely", RoleReplica, "127.0.0.1:1", 0)
	defer b.stop()
	bresp, err := http.Get(b.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusServiceUnavailable || bresp.Header.Get("Retry-After") != retryAfterForLag(0) {
		t.Fatalf("catching-up replica /readyz: code %d Retry-After %q", bresp.StatusCode, bresp.Header.Get("Retry-After"))
	}
}

// TestDefaultNodeName pins the NodeName resolution order: the configured name
// wins, and the fallback is non-empty and deterministic in the ledger path —
// a node whose hostname is unavailable must still present a stable identity
// to handshakes, epoch records, and metrics labels.
func TestDefaultNodeName(t *testing.T) {
	if got := defaultNodeName("custom", "/tmp/l"); got != "custom" {
		t.Fatalf("configured name: got %q", got)
	}
	got := defaultNodeName("", "/tmp/some/ledger")
	if got == "" {
		t.Fatal("defaultNodeName returned empty")
	}
	if again := defaultNodeName("", "/tmp/some/ledger"); again != got {
		t.Fatalf("not deterministic: %q vs %q", got, again)
	}
}

// TestRetryAfterForLag pins the lag→hint scaling: ~1s per thousand records
// behind, clamped to [1, 60] so the header stays a sane poll interval.
func TestRetryAfterForLag(t *testing.T) {
	cases := []struct {
		lag  uint64
		want string
	}{
		{0, "1"},
		{1, "1"},
		{999, "1"},
		{1000, "1"},
		{2500, "2"},
		{60000, "60"},
		{1 << 40, "60"},
	}
	for _, c := range cases {
		if got := retryAfterForLag(c.lag); got != c.want {
			t.Errorf("retryAfterForLag(%d) = %q, want %q", c.lag, got, c.want)
		}
	}
}

// TestLedgerMirrorContract pins the mirror semantics the replication layer
// depends on: strict file order, post-durability invocation, and the
// sync-failure path aborting the charge without poisoning the ledger.
func TestLedgerMirrorContract(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLedger(filepath.Join(dir, "m.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	header, _, _ := l.Position()

	var mirrored []string
	var sizes []int64
	failNext := errors.New("replicas unreachable")
	var failArmed bool
	l.SetMirror(func(frames []byte, size int64, records uint64, sync bool) error {
		if failArmed && sync {
			return failNext
		}
		mirrored = append(mirrored, string(frames))
		sizes = append(sizes, size)
		return nil
	})

	if err := l.AppendEpoch(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(LedgerEntry{Dataset: "d", Epsilon: 0.5, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Probe(); err != nil { // within probeTTL of the append: no write
		t.Fatal(err)
	}
	if len(mirrored) != 2 {
		t.Fatalf("mirrored %d appends, want 2 (epoch + charge; TTL-suppressed probe must not mirror)", len(mirrored))
	}
	// Offsets are the running end-of-record positions after the header, in
	// file order.
	want := header
	for i, frames := range mirrored {
		want += int64(len(frames))
		if sizes[i] != want {
			t.Fatalf("mirror %d: size %d, want %d", i, sizes[i], want)
		}
	}
	if size, _, _ := l.Position(); size != want {
		t.Fatalf("ledger size %d, want %d", size, want)
	}

	// A sync-mirror failure aborts the charge but must NOT poison: the local
	// bytes are known-durable, replay merely overcounts.
	failArmed = true
	err = l.Append(LedgerEntry{Dataset: "d", Epsilon: 0.5})
	if !errors.Is(err, failNext) {
		t.Fatalf("append with failing mirror: %v, want the mirror error", err)
	}
	failArmed = false
	if l.Poisoned() {
		t.Fatal("mirror failure must not poison the ledger")
	}
	if err := l.Append(LedgerEntry{Dataset: "d", Epsilon: 0.25}); err != nil {
		t.Fatalf("append after mirror failure: %v", err)
	}

	// AppendRaw preserves bytes verbatim (the bitwise-prefix property) and
	// rejects bytes that are not whole records.
	if err := l.AppendRaw([]byte("not a record")); err == nil {
		t.Fatal("AppendRaw must reject bytes that are not whole records")
	}
	raw := wal.AppendRecord(nil, []byte("{\"dataset\":\"d\",\"epsilon\":1,\"time\":\"t\"}"))
	if err := l.AppendRaw(raw[:len(raw)-1]); err == nil {
		t.Fatal("AppendRaw must reject a torn record")
	}
	preSize, _, _ := l.Position()
	if err := l.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "m.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[preSize:], raw) {
		t.Fatalf("AppendRaw wrote %q, want %q", data[preSize:], raw)
	}

	// Position tracking survives a reopen (replay rebuilds size/records/CRC).
	size, records, crc := l.Position()
	l.Close()
	l2, _, err := OpenLedger(filepath.Join(dir, "m.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s2, r2, c2 := l2.Position()
	if s2 != size || r2 != records || c2 != crc {
		t.Fatalf("reopened position (%d,%d,%x) != live (%d,%d,%x)", s2, r2, c2, size, records, crc)
	}
	if l2.ReplayedEpoch() != 1 {
		t.Fatalf("replayed epoch %d, want 1", l2.ReplayedEpoch())
	}
}
