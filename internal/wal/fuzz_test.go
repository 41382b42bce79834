package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// expectRecovery restates the recovery rule independently of Open: the
// payloads of the CRC-valid frame prefix after a well-formed header, the
// prefix's byte length, and whether the first bad frame is the torn tail
// (incomplete, or zeros to EOF) rather than corruption. hdrOK is false when
// the header itself is not this log's.
func expectRecovery(file, hdr []byte) (payloads [][]byte, end int, torn, hdrOK bool) {
	if !bytes.HasPrefix(file, hdr) {
		return nil, 0, false, false
	}
	end = len(hdr)
	for {
		rest := file[end:]
		if len(rest) == 0 {
			return payloads, end, true, true
		}
		if len(rest) < FrameHeader || uint64(binary.LittleEndian.Uint32(rest)) > uint64(len(rest)-FrameHeader) {
			return payloads, end, true, true // incomplete final frame
		}
		p, n, err := Decode(rest, MaxRecord)
		if err != nil {
			return payloads, end, bytes.Count(rest, []byte{0}) == len(rest), true
		}
		payloads = append(payloads, p)
		end += n
	}
}

// FuzzOpenLog is the one fuzz harness over every durable byte: arbitrary
// file contents — raw, and behind a valid header so the frame walk is
// reached — go to Open. It must never panic and never allocate beyond a
// constant plus twice the file's size. It succeeds exactly when the recovery
// rule says the damage is a torn tail, and then the replayed records are
// exactly the CRC-valid frame prefix, the file is cut back to it, and the
// log accepts an append that a reopen replays.
func FuzzOpenLog(f *testing.F) {
	hdr := appendHeader(nil, testLog.Identity)
	r1 := AppendRecord(nil, []byte(`{"dataset":"a","epsilon":0.5}`))
	r2 := AppendRecord(nil)
	f.Add([]byte(nil))
	f.Add(bytes.Join([][]byte{hdr, r1, r2}, nil))
	f.Add(bytes.Join([][]byte{r1, r2, r1}, nil))
	f.Add(bytes.Join([][]byte{hdr, r1, r2[:5]}, nil))
	f.Add(bytes.Join([][]byte{r1, make([]byte, 24)}, nil))
	f.Add(bytes.Join([][]byte{make([]byte, 8), r1}, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 'x'})
	f.Add([]byte(`{"time":"2022-06-13T00:00:00Z","dataset":"a","epsilon":0.5}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, append(bytes.Clone(hdr), data...)} {
			checkOpen(t, file, hdr)
		}
	})
}

func checkOpen(t *testing.T, file, hdr []byte) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, got, err := openAll(path, testLog)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+2*uint64(len(file)) {
		t.Fatalf("Open of %d bytes allocated %d", len(file), grew)
	}

	want, end, torn, hdrOK := expectRecovery(file, hdr)
	if len(file) == 0 {
		want, end, torn, hdrOK = nil, len(hdr), true, true // created afresh
	}
	if err != nil {
		if hdrOK && torn {
			t.Fatalf("Open refused a file whose only damage is a torn tail: %v", err)
		}
		return
	}
	defer l.Close()
	if !hdrOK || !torn {
		t.Fatalf("Open accepted a file the rule refuses (header ok %v)", hdrOK)
	}
	if len(got.payloads) != len(want) {
		t.Fatalf("replayed %d records, want the %d of the CRC-valid prefix", len(got.payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(got.payloads[i], want[i]) {
			t.Fatalf("record %d: %q, want %q", i, got.payloads[i], want[i])
		}
	}
	if size, records, crc := l.Position(); size != int64(end) || records != uint64(len(want)) ||
		(len(file) > 0 && crc != Checksum(file[:end])) {
		t.Fatalf("position (%d, %d, %08x), want (%d, %d)", size, records, crc, end, len(want))
	}
	if onDisk, _ := os.ReadFile(path); len(file) > 0 && !bytes.Equal(onDisk, file[:end]) {
		t.Fatalf("file not cut back to its %d-byte intact prefix", end)
	}

	if err := l.Append(AppendRecord(nil, []byte("appended"))); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	l.Close()
	l2, again, err := openAll(path, testLog)
	if err != nil {
		t.Fatalf("reopen after append: %v", err)
	}
	defer l2.Close()
	if n := len(again.payloads); n != len(want)+1 || string(again.payloads[n-1]) != "appended" {
		t.Fatalf("reopen replayed %d records, want %d ending in the append", n, len(want)+1)
	}
}
