package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testLog = Config{Site: "waltest", Identity: "test"}

// replayed is what one Open handed its replay callback.
type replayed struct {
	offs     []int64
	payloads [][]byte
}

func openAll(path string, cfg Config) (*Log, replayed, error) {
	var r replayed
	l, err := Open(path, cfg, func(off int64, p []byte) error {
		r.offs = append(r.offs, off)
		r.payloads = append(r.payloads, bytes.Clone(p))
		return nil
	})
	return l, r, err
}

// TestRecoveryRule drives Open's one recovery rule over every shape the
// ledger and the table WALs share: a clean file and an empty one replay
// whole; an incomplete final frame or a zero-filled tail is the torn tail,
// truncated, fsynced and counted; a complete frame failing its CRC — final
// or interior — refuses the open with its offset, as do a bad magic and a
// wrong identity.
func TestRecoveryRule(t *testing.T) {
	hdr := appendHeader(nil, testLog.Identity)
	r1 := AppendRecord(nil, []byte(`{"dataset":"a","epsilon":0.5}`))
	r2 := AppendRecord(nil) // an empty record, like a ledger probe
	r3 := AppendRecord(nil, []byte("third"))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 0x10
		return b
	}
	huge := bytes.Clone(r3)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F

	cases := []struct {
		name  string
		file  []byte
		want  [][]byte // replayed payloads
		torn  int
		fails error  // refusal the error must wrap
		at    string // refusal text, e.g. the frame offset; set with fails or alone
	}{
		{name: "clean", file: cat(hdr, r1, r2, r3), want: [][]byte{r1[8:], {}, r3[8:]}},
		{name: "empty file", file: nil, want: nil},
		{name: "header only", file: hdr, want: nil},
		{name: "incomplete final payload", file: cat(hdr, r1, r3[:len(r3)-2]), want: [][]byte{r1[8:]}, torn: len(r3) - 2},
		{name: "incomplete final header", file: cat(hdr, r1, r3[:5]), want: [][]byte{r1[8:]}, torn: 5},
		{name: "length past EOF beyond the bound", file: cat(hdr, r1, huge), want: [][]byte{r1[8:]}, torn: len(huge)},
		{name: "zero-filled tail", file: cat(hdr, r1, make([]byte, 40)), want: [][]byte{r1[8:]}, torn: 40},
		{name: "zero-filled short tail", file: cat(hdr, r1, r2, make([]byte, 3)), want: [][]byte{r1[8:], {}}, torn: 3},
		{name: "CRC-failing final frame", file: cat(hdr, r1, flip(r3, 10)), fails: ErrCRC, at: fmt.Sprintf("offset %d", len(hdr)+len(r1))},
		{name: "CRC-failing interior frame", file: cat(hdr, flip(r1, 12), r3), fails: ErrCRC, at: fmt.Sprintf("offset %d", len(hdr))},
		{name: "flipped length field", file: cat(hdr, r1, flip(r2, 0), make([]byte, 16), r3), fails: ErrCRC, at: fmt.Sprintf("offset %d", len(hdr)+len(r1))},
		{name: "zeros then data", file: cat(hdr, r1, make([]byte, 8), r3), fails: ErrCRC, at: fmt.Sprintf("offset %d", len(hdr)+len(r1))},
		{name: "bad magic", file: cat([]byte(`{"time":"t","dataset":"a","epsilon":1}`+"\n"), r1), fails: ErrFormat, at: "magic"},
		{name: "truncated header", file: hdr[:6], fails: ErrFormat},
		{name: "wrong identity", file: cat(appendHeader(nil, "other"), r1), at: `log holds "other", want "test"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, err := openAll(path, testLog)
			if c.fails != nil || c.at != "" {
				if err == nil {
					l.Close()
					t.Fatalf("opened; want a refusal")
				}
				if c.fails != nil && !errors.Is(err, c.fails) {
					t.Fatalf("error %v, want %v", err, c.fails)
				}
				if !strings.Contains(err.Error(), c.at) {
					t.Fatalf("error %q does not name %q", err, c.at)
				}
				after, _ := os.ReadFile(path)
				if !bytes.Equal(after, c.file) {
					t.Fatal("a refused open modified the file")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if len(got.payloads) != len(c.want) {
				t.Fatalf("replayed %d records, want %d", len(got.payloads), len(c.want))
			}
			off := int64(len(hdr))
			for i, p := range got.payloads {
				if !bytes.Equal(p, c.want[i]) || got.offs[i] != off {
					t.Fatalf("record %d: %q at %d, want %q at %d", i, p, got.offs[i], c.want[i], off)
				}
				off += int64(FrameHeader + len(p))
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(onDisk)) != off || !bytes.HasPrefix(onDisk, hdr) {
				t.Fatalf("file is %d bytes after repair, want the %d-byte intact prefix", len(onDisk), off)
			}
			size, records, crc := l.Position()
			if size != off || records != uint64(len(c.want)) || crc != Checksum(onDisk) {
				t.Fatalf("position (%d, %d, %08x), want (%d, %d, %08x)", size, records, crc, off, len(c.want), Checksum(onDisk))
			}
			if st := l.Stats(); st.TornBytes != uint64(c.torn) || st.ReplayedRecs != uint64(len(c.want)) {
				t.Fatalf("stats %+v, want %d torn bytes, %d replayed", st, c.torn, len(c.want))
			}

			// The repaired log takes appends, and a reopen sees them.
			if err := l.Append(AppendRecord(nil, []byte("next"))); err != nil {
				t.Fatal(err)
			}
			l.Close()
			l2, again, err := openAll(path, testLog)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if n := len(again.payloads); n != len(c.want)+1 || string(again.payloads[n-1]) != "next" {
				t.Fatalf("reopen replayed %q, want the prefix plus the append", again.payloads)
			}
		})
	}
}

// TestAppendRefusesBadFramesWithoutPoisoning: bytes that are not whole
// records never reach the file, and refusing them leaves the log writable.
func TestAppendRefusesBadFramesWithoutPoisoning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _, err := openAll(path, testLog)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	good := AppendRecord(nil, []byte("ok"))
	for _, bad := range [][]byte{
		[]byte("not a record"),
		good[:len(good)-1],
		append(bytes.Clone(good), 0),
		append(good[:4:4], 0, 0, 0, 0, 'o', 'k'),
	} {
		if err := l.Append(bad); err == nil {
			t.Fatalf("append of %q accepted", bad)
		}
	}
	if err := l.Poisoned(); err != nil {
		t.Fatalf("refused frames poisoned the log: %v", err)
	}
	size, _, _ := l.Position()
	if fi, _ := os.Stat(path); fi.Size() != size {
		t.Fatalf("file is %d bytes, log says %d", fi.Size(), size)
	}
	if err := l.Append(good); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Appends != 1 || st.Fsyncs != 1 {
		t.Fatalf("stats %+v, want one append and one fsync", st)
	}
}

// TestRecordCodec pins the codec both disk and wire share: Decode and
// ReadRecord agree, a zero-filled header is never a valid empty record, and
// an oversized length is refused before the payload bytes are consulted.
func TestRecordCodec(t *testing.T) {
	rec := AppendRecord(nil, []byte("ab"), nil, []byte("cd"))
	p, n, err := Decode(append(bytes.Clone(rec), 0xEE), MaxRecord)
	if err != nil || string(p) != "abcd" || n != len(rec) {
		t.Fatalf("Decode = %q, %d, %v", p, n, err)
	}
	if p, err := ReadRecord(bytes.NewReader(rec), MaxRecord); err != nil || string(p) != "abcd" {
		t.Fatalf("ReadRecord = %q, %v", p, err)
	}
	if _, _, err := Decode(make([]byte, FrameHeader), MaxRecord); !errors.Is(err, ErrCRC) {
		t.Fatalf("zero header: %v, want ErrCRC", err)
	}
	if _, _, err := Decode(rec[:FrameHeader], 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-bound length: %v, want ErrTooLarge", err)
	}
	if _, err := ReadRecord(bytes.NewReader(rec[:FrameHeader]), 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-bound stream length: %v, want ErrTooLarge", err)
	}
	if n, err := Each(bytes.Repeat(rec, 3), nil); n != 3 || err != nil {
		t.Fatalf("Each = %d, %v", n, err)
	}
}
