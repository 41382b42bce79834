package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"r2t/internal/wal"
)

// FuzzOpenLedger feeds arbitrary bytes to the ledger replay. The contract
// under corruption: OpenLedger either hard-errors (refusing to serve over a
// ledger it cannot account for) or succeeds with a spend that covers every
// valid charge in the file's intact record prefix — never less, since those
// entries may back charges that were admitted before the corruption
// happened. On success the ledger must also have repaired any torn tail well
// enough to accept new appends.
func FuzzOpenLedger(f *testing.F) {
	valid := `{"time":"2022-06-13T00:00:00Z","dataset":"a","epsilon":0.5}`
	torn := wal.AppendRecord(nil, []byte(`{"dataset":"b","epsilon":0.25}`))
	flipped := bytes.Clone(torn)
	flipped[len(flipped)-3] ^= 0x20
	f.Add([]byte(nil))
	f.Add(framedLedger(f, nil, valid))
	f.Add(framedLedger(f, nil, valid, valid, valid))
	f.Add(framedLedger(f, torn[:len(torn)-5], valid))                           // torn mid-append tail
	f.Add(framedLedger(f, make([]byte, 32), valid))                             // zero-filled tail
	f.Add(framedLedger(f, nil, "", valid, ""))                                  // readiness probes
	f.Add(framedLedger(f, nil, valid, `{"kind":"epoch","epoch":3,"node":"n"}`)) // epoch record
	f.Add(framedLedger(f, nil, `{"dataset":"","epsilon":1}`))                   // invalid: empty dataset
	f.Add(framedLedger(f, nil, `{"dataset":"a","epsilon":-3}`))                 // invalid: negative ε
	f.Add(framedLedger(f, nil, "not json at all", valid))
	f.Add(framedLedger(f, flipped, valid))     // final frame fails its CRC
	f.Add([]byte(valid + "\n" + valid + "\n")) // pre-framed JSON lines
	f.Add([]byte{0xff, 0xfe, '\n', '{', 0x00})
	hdr := framedLedger(f, nil)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ledger")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, spent, err := OpenLedger(path)
		if err != nil {
			return // refusing corrupt input is a correct outcome
		}
		defer l.Close()

		// Replay accepted the file: its spend must cover every valid charge
		// in the intact record prefix (everything after it was a torn tail).
		want := make(map[string]float64)
		for rest := bytes.TrimPrefix(data, hdr); len(rest) > 0; {
			p, n, err := wal.Decode(rest, wal.MaxRecord)
			if err != nil {
				break
			}
			var e LedgerEntry
			if json.Unmarshal(p, &e) == nil && e.Kind == "" && e.Dataset != "" && e.Epsilon > 0 {
				want[e.Dataset] += e.Epsilon
			}
			rest = rest[n:]
		}
		for ds, w := range want {
			if spent[ds] < w-1e-9 {
				t.Errorf("dataset %s: replayed %g < %g, an admitted charge was dropped", ds, spent[ds], w)
			}
		}

		// The repaired ledger is append-ready: a fresh charge lands and is
		// visible to the next replay.
		if err := l.Append(LedgerEntry{Dataset: "fuzz-probe", Epsilon: 0.125}); err != nil {
			t.Errorf("append after replay/repair: %v", err)
		}
		l.Close()
		l2, spent, err := OpenLedger(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer l2.Close()
		if spent["fuzz-probe"] != 0.125 {
			t.Errorf("appended charge replayed as %g", spent["fuzz-probe"])
		}
	})
}
