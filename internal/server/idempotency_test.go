package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// appendWithID posts /v1/append carrying an X-R2T-Append-Id header.
func (c *testClient) appendWithID(id, body string) (int, appendResponse, errorResponse) {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/append", strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(AppendIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok appendResponse
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

// TestAppendIdempotency covers the X-R2T-Append-Id satellite: a replayed id
// returns the stored response without re-applying rows, a reused id with
// different rows is a conflict, and a failed attempt releases its id for
// retry. (The window's LRU bound is the cache package's TestLRUOrderAndEviction.)
func TestAppendIdempotency(t *testing.T) {
	base := t.TempDir()
	cfg := durableGraphConfig(t, filepath.Join(base, "l.ledger"), filepath.Join(base, "wal"))
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &testClient{t: t, url: ts.URL}

	edgeLen := func() int {
		return srv.reg.Get("graph").DB.Instance().Table("Edge").Len()
	}
	before := edgeLen()

	// First attempt with an id applies normally.
	const body = `{"dataset":"graph","relation":"Edge","rows":[["0","7"],["3","9"]]}`
	code, r1, fe := c.appendWithID("batch-1", body)
	if code != http.StatusOK || r1.Deduped {
		t.Fatalf("first append: code %d deduped %v (%s)", code, r1.Deduped, fe.Error)
	}
	if edgeLen() != before+2 {
		t.Fatalf("Edge len = %d, want %d", edgeLen(), before+2)
	}

	// The retry (same id, same rows) replays the stored response; the rows
	// are NOT applied again.
	code, r2, _ := c.appendWithID("batch-1", body)
	if code != http.StatusOK || !r2.Deduped {
		t.Fatalf("replayed append: code %d deduped %v", code, r2.Deduped)
	}
	if r2.Appended != r1.Appended || r2.TotalRows != r1.TotalRows {
		t.Fatalf("replayed response %+v differs from original %+v", r2, r1)
	}
	if edgeLen() != before+2 {
		t.Fatalf("replay re-applied rows: Edge len = %d, want %d", edgeLen(), before+2)
	}

	// The same id with different rows is a conflict, not a silent replay.
	code, _, fe = c.appendWithID("batch-1", `{"dataset":"graph","relation":"Edge","rows":[["1","8"]]}`)
	if code != http.StatusConflict || !strings.Contains(fe.Error, "different rows") {
		t.Fatalf("conflicting reuse: code %d err %q", code, fe.Error)
	}

	// A failed append must not consume its id: the FK violation below leaves
	// "batch-2" free, so the corrected retry leads (not a replay).
	code, _, _ = c.appendWithID("batch-2", `{"dataset":"graph","relation":"Edge","rows":[["0","99"]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("FK-violating append: code %d, want 400", code)
	}
	code, r3, _ := c.appendWithID("batch-2", `{"dataset":"graph","relation":"Edge","rows":[["1","8"]]}`)
	if code != http.StatusOK || r3.Deduped {
		t.Fatalf("retry after failure: code %d deduped %v, want a fresh 200", code, r3.Deduped)
	}

	// The dedup hit is visible to operators.
	_, metrics := c.get("/metrics")
	if !strings.Contains(metrics, "r2td_append_dedup_hits_total 1") {
		t.Errorf("/metrics missing r2td_append_dedup_hits_total 1")
	}
}

// dedupSize returns the number of remembered ids.
func dedupSize(d *appendDedup) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ids.Stats().Entries
}

// TestAppendDedupUnit pins the claim/finish state machine directly.
func TestAppendDedupUnit(t *testing.T) {
	d := newAppendDedup()
	ctx := context.Background()
	h1 := hashAppendBody([][]string{{"a", "b"}})
	h2 := hashAppendBody([][]string{{"a"}, {"b"}}) // same bytes, different shape
	if h1 == h2 {
		t.Fatal("hashAppendBody must be injective across row boundaries")
	}

	// Lead → failure releases the id.
	_, outcome, fin, _ := d.claim(ctx, "k", h1)
	if outcome != dedupLead {
		t.Fatalf("first claim: %v, want lead", outcome)
	}
	fin(appendResponse{}, false)
	if n := dedupSize(d); n != 0 {
		t.Fatalf("failed flight left %d entries", n)
	}

	// Lead → success stores; replay and conflict resolve against the store.
	_, outcome, fin, _ = d.claim(ctx, "k", h1)
	if outcome != dedupLead {
		t.Fatalf("reclaim after failure: %v, want lead", outcome)
	}
	fin(appendResponse{Appended: 7}, true)
	stored, outcome, _, _ := d.claim(ctx, "k", h1)
	if outcome != dedupReplay || stored.Appended != 7 {
		t.Fatalf("replay: %v %+v", outcome, stored)
	}
	if _, outcome, _, _ = d.claim(ctx, "k", h2); outcome != dedupConflict {
		t.Fatalf("hash mismatch: %v, want conflict", outcome)
	}

	// Concurrent claim of an in-flight id with the same hash waits for the
	// leader and replays its stored response.
	_, outcome, fin, _ = d.claim(ctx, "wait", h1)
	if outcome != dedupLead {
		t.Fatalf("inflight lead: %v", outcome)
	}
	done := make(chan dedupOutcome, 1)
	go func() {
		_, o, _, _ := d.claim(ctx, "wait", h1)
		done <- o
	}()
	// A different-hash claim against the in-flight id conflicts immediately,
	// without waiting for the leader.
	if _, o, _, _ := d.claim(ctx, "wait", h2); o != dedupConflict {
		t.Fatalf("inflight hash mismatch: %v, want conflict", o)
	}
	// A follower whose client has gone returns its context's error while the
	// leader still holds the id, instead of waiting out the leader's fsync.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := d.claim(cancelled, "wait", h1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: err %v, want context.Canceled", err)
	}
	fin(appendResponse{Appended: 1}, true)
	if o := <-done; o != dedupReplay {
		t.Fatalf("waiter outcome: %v, want replay", o)
	}
	// The leader's success still replays to the next retry.
	if r, o, _, err := d.claim(ctx, "wait", h1); err != nil || o != dedupReplay || r.Appended != 1 {
		t.Fatalf("retry after cancelled follower: %v %+v %v, want replay of 1", o, r, err)
	}
}
