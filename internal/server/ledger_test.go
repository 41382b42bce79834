package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r2t/internal/wal"
)

func TestLedgerAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.jsonl")
	l, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spent) != 0 {
		t.Fatalf("fresh ledger has spend: %v", spent)
	}
	charges := []LedgerEntry{
		{Dataset: "a", Epsilon: 0.25, Query: "SELECT COUNT(*) FROM Edge"},
		{Dataset: "a", Epsilon: 0.5},
		{Dataset: "b", Epsilon: 1.5, Fingerprint: "abc"},
	}
	for _, e := range charges {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if spent["a"] != 0.75 || spent["b"] != 1.5 {
		t.Fatalf("replayed spend: %v", spent)
	}
	// Appends after a replay extend the same log.
	if err := l2.Append(LedgerEntry{Dataset: "a", Epsilon: 0.25}); err != nil {
		t.Fatal(err)
	}
	l3, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if spent["a"] != 1.0 {
		t.Fatalf("spend after second round: %v", spent)
	}
}

// framedLedger returns the bytes of a framed ledger file: the header, then
// one record per payload, then tail verbatim.
func framedLedger(tb testing.TB, tail []byte, payloads ...string) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "header.ledger")
	l, err := wal.Create(path, ledgerLog, nil)
	if err != nil {
		tb.Fatal(err)
	}
	l.Close()
	body, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range payloads {
		body = wal.AppendRecord(body, []byte(p))
	}
	return append(body, tail...)
}

// writeLedger writes framedLedger's bytes to path.
func writeLedger(t *testing.T, path string, tail []byte, payloads ...string) {
	t.Helper()
	if err := os.WriteFile(path, framedLedger(t, tail, payloads...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerTornFinalFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.ledger")
	torn := wal.AppendRecord(nil, []byte(`{"dataset":"a","epsilon":0.25}`))
	writeLedger(t, path, torn[:len(torn)-4], `{"dataset":"a","epsilon":0.5}`) // torn mid-append
	l, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("torn final frame must be tolerated: %v", err)
	}
	if spent["a"] != 0.5 {
		t.Fatalf("spend: %v", spent)
	}
	if st := l.Stats(); st.TornBytes != uint64(len(torn)-4) || st.ReplayedRecs != 1 {
		t.Fatalf("stats %+v, want %d torn bytes and 1 replayed record", st, len(torn)-4)
	}
	// The torn fragment is truncated, so a new append lands cleanly.
	if err := l.Append(LedgerEntry{Dataset: "a", Epsilon: 0.25}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if spent["a"] != 0.75 {
		t.Fatalf("spend after repair: %v", spent)
	}
}

func TestLedgerZeroFilledTail(t *testing.T) {
	// A complete final entry followed by zeros (the file grew, the next
	// append's bytes never landed): the charge counts and the zeros are
	// truncated in place.
	path := filepath.Join(t.TempDir(), "l.ledger")
	writeLedger(t, path, make([]byte, 64), `{"dataset":"a","epsilon":0.5}`, `{"dataset":"a","epsilon":0.25}`)
	l, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if spent["a"] != 0.75 {
		t.Fatalf("spend: %v", spent)
	}
	if err := l.Append(LedgerEntry{Dataset: "b", Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, spent, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if spent["a"] != 0.75 || spent["b"] != 1 {
		t.Fatalf("spend after repair: %v", spent)
	}
}

func TestLedgerCorruptionIsFatal(t *testing.T) {
	valid := `{"dataset":"a","epsilon":0.5}`
	flipped := wal.AppendRecord(nil, []byte(valid))
	flipped[12] ^= 0x01
	cases := []struct {
		tail     []byte
		payloads []string
	}{
		{nil, []string{"garbage", valid}},                               // corrupt interior entry
		{nil, []string{`{"dataset":"","epsilon":0.5}`}},                 // missing dataset
		{nil, []string{`{"dataset":"a","epsilon":-1}`}},                 // non-positive charge
		{nil, []string{`{"dataset":"a","epsilon":0}`}},                  // zero charge
		{nil, []string{`{"dataset":"a"}`}},                              // absent charge
		{nil, []string{"\x00\x01", valid}},                              // binary junk
		{flipped, []string{valid}},                                      // final frame fails its CRC
		{append(flipped, wal.AppendRecord(nil, []byte(valid))...), nil}, // interior frame fails its CRC
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "l.ledger")
		writeLedger(t, path, c.tail, c.payloads...)
		if _, _, err := OpenLedger(path); err == nil {
			t.Errorf("corrupt ledger %q + %q accepted", c.payloads, c.tail)
		} else if !strings.Contains(err.Error(), "ledger") {
			t.Errorf("error should identify the ledger: %v", err)
		}
	}
}

// TestLedgerRefusesJSONLines: a ledger in the JSON-lines format that came
// before the framed log is refused with an error naming the format — never
// read as zero spend — and left untouched for an operator to carry over.
func TestLedgerRefusesJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.ledger")
	body := []byte(`{"time":"2022-06-13T00:00:00Z","dataset":"a","epsilon":0.5}` + "\n\n")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	l, spent, err := OpenLedger(path)
	if err == nil {
		l.Close()
		t.Fatalf("JSON-lines ledger opened with spend %v", spent)
	}
	if !errors.Is(err, wal.ErrFormat) || !strings.Contains(err.Error(), "JSON-lines") {
		t.Fatalf("error %q does not name the JSON-lines format", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, body) {
		t.Fatal("refused ledger was modified")
	}
}
