package segstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"r2t/internal/storage"
	"r2t/internal/value"
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
	buf := appendRecord(nil, rows)
	plen := int(binary.LittleEndian.Uint32(buf))
	crc := binary.LittleEndian.Uint32(buf[4:])
	payload := buf[8:]
	if len(payload) != plen {
		t.Fatalf("frame says %d payload bytes, have %d", plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != crc {
		t.Fatal("CRC mismatch on freshly encoded record")
	}
	got, err := decodePayload(payload, 3)
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
	rows := sampleRows()
	buf := appendRecord(nil, rows)
	payload := buf[8:]
	for cut := 0; cut < len(payload); cut += 3 {
		if _, err := decodePayload(payload[:cut], 3); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(payload))
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 0xEE // implausible row count
	if _, err := decodePayload(bad, 3); err == nil {
		t.Fatal("corrupt row count decoded cleanly")
	}
	if _, err := decodePayload(payload, 4); err == nil {
		t.Fatal("wrong column count decoded cleanly")
	}
}

// TestHeaderRoundTrip drives readHeader, the decoder Open runs.
func TestHeaderRoundTrip(t *testing.T) {
	read := func(b []byte, name string, ncols int) (int, error) {
		return readHeader(bufio.NewReader(bytes.NewReader(b)), name, ncols)
	}
	buf := appendHeader(nil, "Orders", 5)
	n, err := read(buf, "Orders", 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("header length %d, want %d", n, len(buf))
	}
	hugeName := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(hugeName[len(walMagic):], 1<<16+1)
	for _, bad := range []struct {
		what  string
		b     []byte
		name  string
		ncols int
	}{
		{"wrong relation name", buf, "Customer", 5},
		{"wrong column count", buf, "Orders", 4},
		{"header truncated in the fixed part", buf[:6], "Orders", 5},
		{"header truncated in the name", buf[:len(walMagic)+4+3], "Orders", 5},
		{"implausible name length", hugeName, "Orders", 5},
	} {
		if _, err := read(bad.b, bad.name, bad.ncols); err == nil {
			t.Errorf("%s accepted", bad.what)
		}
	}
}
