package segstore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"r2t/internal/schema"
	"r2t/internal/storage"
	"r2t/internal/value"
	"r2t/internal/wal"
)

func sampleRows() []storage.Row {
	return []storage.Row{
		{value.IntV(1), value.StringV("alpha"), value.FloatV(1.5)},
		{value.IntV(-7), value.StringV(""), value.NullV()},
		{value.IntV(math.MaxInt64), value.StringV("héllo\x00world"), value.FloatV(math.Inf(-1))},
		{value.NullV(), value.NullV(), value.FloatV(0)},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rows := sampleRows()
	w := &tableWAL{}
	buf := w.appendRecord(nil, rows)
	payload, n, err := wal.Decode(buf, wal.MaxRecord)
	if err != nil {
		t.Fatalf("freshly encoded record does not decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("record spans %d bytes, have %d", n, len(buf))
	}
	got, err := DecodePayload(payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows decoded, want %d", len(got), len(rows))
	}
	for i, row := range rows {
		for c, v := range row {
			g := got[i][c]
			// Bitwise comparison: floats must survive exactly, -Inf included.
			if g.K != v.K || g.I != v.I || g.S != v.S ||
				math.Float64bits(g.F) != math.Float64bits(v.F) {
				t.Fatalf("row %d col %d: %#v, want %#v", i, c, g, v)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	payload := AppendPayload(nil, sampleRows())
	for cut := 0; cut < len(payload); cut += 3 {
		if _, err := DecodePayload(payload[:cut], 3); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(payload))
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 0xEE // implausible row count
	if _, err := DecodePayload(bad, 3); err == nil {
		t.Fatal("corrupt row count decoded cleanly")
	}
	if _, err := DecodePayload(payload, 4); err == nil {
		t.Fatal("wrong column count decoded cleanly")
	}

	// A 12-byte payload claiming 4 Mi rows: the bytes left cannot hold them,
	// so it is refused before any row slice is allocated (a replicated
	// TypeRows payload reaches this decoder straight off the wire).
	huge := binary.LittleEndian.AppendUint32(nil, 4<<20)
	huge = append(huge, make([]byte, 8)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodePayload(huge, 3)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("row count beyond the payload decoded cleanly")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a 12-byte payload allocated %d bytes", grew)
	}
}

// TestHeaderRoundTrip drives the WAL header check Open runs: a log opens
// under the relation and column count it was written for, and refuses any
// other identity or a damaged header.
func TestHeaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inst := storage.NewInstance(testSchema())
	inst.MustInsert("R", intRow(1, 10))
	st, err := Open(dir, inst)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "R.wal"))
	if err != nil {
		t.Fatal(err)
	}
	hugeName := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(hugeName[8:], 1<<16+1)
	threeCols := schema.MustNew(&schema.Relation{Name: "R", Attrs: []string{"ID", "w", "x"}, PK: "ID"})
	twoCols := schema.MustNew(&schema.Relation{Name: "R", Attrs: []string{"ID", "w"}, PK: "ID"})
	for _, c := range []struct {
		what   string
		b      []byte
		schema *schema.Schema
		ok     bool
	}{
		{"the relation it was written for", raw, twoCols, true},
		{"wrong column count", raw, threeCols, false},
		{"header truncated in the magic", raw[:6], twoCols, false},
		{"header truncated in the name", raw[:8+4+1], twoCols, false},
		{"implausible name length", hugeName, twoCols, false},
	} {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "R.wal"), c.b, 0o644); err != nil {
			t.Fatal(err)
		}
		inst := storage.NewInstance(c.schema)
		st, err := Open(d, inst)
		if c.ok != (err == nil) {
			t.Errorf("%s: Open error %v", c.what, err)
		}
		if err == nil {
			requireRows(t, inst.Table("R"), []storage.Row{intRow(1, 10)})
			st.Close()
		}
	}

	// A log written for S does not open as R.
	d := t.TempDir()
	if err := os.Rename(filepath.Join(dir, "S.wal"), filepath.Join(d, "R.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d, storage.NewInstance(twoCols)); err == nil {
		t.Error("wrong relation name accepted")
	}
}
