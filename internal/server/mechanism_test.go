package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServerMechanismSelection drives the mechanism surface end to end:
// request-level mechanism selection, the response's mechanism field, the
// fingerprint separation of mechanisms (no cache aliasing), the selection
// metric, and — the charge-safety criterion — that an inapplicable or unknown
// mechanism is refused with HTTP 400 BEFORE any ε is charged.
func TestServerMechanismSelection(t *testing.T) {
	cfg := newGraphConfig(t, filepath.Join(t.TempDir(), "budget.ledger"), 10)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &testClient{t: t, url: ts.URL}

	// Unknown mechanism: 400, zero charge (Options.Validate, pre-charge).
	code, _, fe := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16,"mechanism":"bogus"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown mechanism: HTTP %d (%s)", code, fe.Error)
	}
	// An invalid mechanism parameter (fixed-τ above the GS_Q promise) is also
	// rejected before anything can charge.
	code, _, fe = c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16,"mechanism":"fixed-tau","fixed_tau":64}`)
	if code != http.StatusBadRequest {
		t.Fatalf("fixed-tau above GSQ: HTTP %d (%s)", code, fe.Error)
	}
	// Nothing above may have charged.
	code, r, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16}`)
	if code != http.StatusOK {
		t.Fatalf("baseline query: HTTP %d", code)
	}
	if r.EpsilonSpent != 1 {
		t.Fatalf("rejected requests charged ε: spent %g, want 1 (this release only)", r.EpsilonSpent)
	}
	if r.Mechanism != "r2t" {
		t.Fatalf("default mechanism in response = %q, want r2t", r.Mechanism)
	}

	// A laplace release of the same query must NOT alias the r2t release in
	// the free-replay cache: it is a fresh release with its own charge.
	code, rl, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16,"mechanism":"laplace"}`)
	if code != http.StatusOK {
		t.Fatalf("laplace query: HTTP %d", code)
	}
	if rl.Cached || rl.Mechanism != "laplace" {
		t.Fatalf("laplace release: %+v", rl)
	}
	if rl.EpsilonSpent != 2 {
		t.Fatalf("laplace release should have charged: spent %g, want 2", rl.EpsilonSpent)
	}

	// Replaying each spelling is free and reports the recorded mechanism.
	code, rr, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16,"mechanism":"laplace"}`)
	if code != http.StatusOK || !rr.Cached || rr.Mechanism != "laplace" || rr.EpsilonCharged != 0 {
		t.Fatalf("laplace replay: HTTP %d %+v", code, rr)
	}

	// Auto with a loose target picks laplace; the decision shows up in the
	// selection metric.
	code, ra, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16,"mechanism":"auto","error_target":1e9}`)
	if code != http.StatusOK {
		t.Fatalf("auto query: HTTP %d", code)
	}
	if ra.Mechanism != "laplace" {
		t.Fatalf("auto picked %q", ra.Mechanism)
	}

	code, body := c.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		`r2td_mech_selected_total{dataset="graph",mech="r2t"} 1`,
		`r2td_mech_selected_total{dataset="graph",mech="laplace"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerDatasetDefaultMechanism: a dataset-level default applies when the
// request names no mechanism, and an explicit request still wins.
func TestServerDatasetDefaultMechanism(t *testing.T) {
	cfg := newGraphConfig(t, filepath.Join(t.TempDir(), "budget.ledger"), 10)
	cfg.Datasets[0].DefaultMechanism = "laplace"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &testClient{t: t, url: ts.URL}

	code, r, _ := c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16}`)
	if code != http.StatusOK || r.Mechanism != "laplace" {
		t.Fatalf("dataset default: HTTP %d mech %q", code, r.Mechanism)
	}
	code, r, _ = c.query(`{"dataset":"graph","sql":"SELECT COUNT(*) FROM Edge","epsilon":1,"gsq":16,"mechanism":"r2t"}`)
	if code != http.StatusOK || r.Mechanism != "r2t" {
		t.Fatalf("explicit override: HTTP %d mech %q", code, r.Mechanism)
	}
}

// TestServerInvalidDefaultMechanism: a bad dataset default fails startup.
func TestServerInvalidDefaultMechanism(t *testing.T) {
	cfg := newGraphConfig(t, filepath.Join(t.TempDir(), "budget.ledger"), 1)
	cfg.Datasets[0].DefaultMechanism = "bogus"
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "default mechanism") {
		t.Fatalf("err = %v", err)
	}
}

// TestServerNaiveShapeRejected: ls on a query with two primary-private atoms
// — every order references a customer and a supplier — is refused with HTTP
// 400 before the charge, with data in the tables (where naive truncation
// would fail after the charge) and the ledger untouched.
func TestServerNaiveShapeRejected(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"shop.schema":  "Customer(CK*)\nSupplier(SK*)\nOrders(OK*, CK->Customer, SK->Supplier)\n",
		"Customer.csv": "CK\n1\n2\n",
		"Supplier.csv": "SK\n1\n",
		"Orders.csv":   "OK,CK,SK\n1,1,1\n2,2,1\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{
		Datasets: []DatasetConfig{{
			Name: "shop", SchemaPath: filepath.Join(dir, "shop.schema"), DataDir: dir,
			Epsilon: 10, Primary: []string{"Customer", "Supplier"},
		}},
		LedgerPath: filepath.Join(dir, "budget.ledger"),
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &testClient{t: t, url: ts.URL}

	code, _, fe := c.query(`{"dataset":"shop","sql":"SELECT COUNT(*) FROM Orders","epsilon":1,"gsq":16,"mechanism":"ls"}`)
	if code != http.StatusBadRequest || !strings.Contains(fe.Error, "primary-private atoms") {
		t.Fatalf("ls with two primaries: HTTP %d (%s), want 400", code, fe.Error)
	}
	if fe.EpsilonRemaining == nil || *fe.EpsilonRemaining != 10 {
		t.Fatalf("refused request touched the budget: remaining %v", fe.EpsilonRemaining)
	}
	code, r, _ := c.query(`{"dataset":"shop","sql":"SELECT COUNT(*) FROM Orders","epsilon":1,"gsq":16}`)
	if code != http.StatusOK || r.EpsilonSpent != 1 {
		t.Fatalf("r2t after the refusal: HTTP %d, spent %g, want 200 with this release's ε only", code, r.EpsilonSpent)
	}
}
