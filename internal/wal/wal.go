// Package wal is the one durable append-only log under r2td. The ε-ledger
// and every table's write-ahead log are thin schemas over it, and the
// replication stream frames its messages with the same record codec
// (DESIGN.md §13a).
//
// File format, all integers little-endian:
//
//	header: "r2tlog01" | u32 len(identity) | identity
//	record: u32 len(payload) | u32 CRC-32 (IEEE) over the length field and payload | payload
//
// The identity names what the log holds and is checked on open. The CRC
// covers the length field, so a zero-filled frame header is never a valid
// empty record; every length is bounded before anything is allocated for it.
//
// Recovery rule, one for every log: replay stops at the first bad frame. If
// that frame is an incomplete final frame (its header or payload runs past
// EOF), or every byte from it to EOF is zero, it is the torn tail of a crash
// mid-append: it is truncated away, the repair fsynced, and its bytes counted
// in Stats.TornBytes. Any other bad frame is corruption — a complete frame
// failing its CRC or length bound — and Open refuses with its offset instead
// of dropping records after it that may already have been acknowledged.
//
// Fault sites (internal/fault): a log with site prefix p consults p.open,
// p.read, p.write (honoring Short for torn writes), p.sync and p.truncate.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// magic begins every log file and pins the format version.
const magic = "r2tlog01"

// FrameHeader is the fixed record prefix: length and CRC.
const FrameHeader = 8

// MaxRecord bounds one log record's payload. A complete frame claiming more
// is corruption; writers split batches to stay under it, and Append refuses
// a record replay could not read back.
const MaxRecord = 64 << 20

// Codec and log errors. ErrShort, ErrTooLarge and ErrCRC describe a bad
// frame; ErrFormat a file that is not a log at all; ErrPoisoned every append
// after a write of unknown durability.
var (
	ErrShort    = errors.New("wal: short record")
	ErrTooLarge = errors.New("wal: record length exceeds bound")
	ErrCRC      = errors.New("wal: record CRC mismatch")
	ErrFormat   = errors.New("wal: not a framed r2t log")
	ErrPoisoned = errors.New("durable log poisoned: durability of an earlier write is unknown; reopen to recover")
)

// checksum is a record's CRC: over its length field, then its payload.
func checksum(length, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(length), crc32.IEEETable, payload)
}

// AppendRecord appends one record whose payload is the concatenation of
// parts, and returns the extended buffer.
func AppendRecord(buf []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	at := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, 0, 0, 0, 0) // CRC, patched below
	for _, p := range parts {
		buf = append(buf, p...)
	}
	binary.LittleEndian.PutUint32(buf[at+4:], checksum(buf[at:at+4], buf[at+FrameHeader:]))
	return buf
}

// payloadLen reads a frame header's length field and bounds it.
func payloadLen(hdr []byte, maxRecord int) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if uint64(n) > uint64(maxRecord) {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxRecord)
	}
	return int(n), nil
}

// Decode parses the record at the head of b and returns its payload
// (aliasing b) and the number of bytes the frame spans. It is total over
// arbitrary bytes: the length is bounded by maxRecord before the available
// bytes are consulted, and a CRC mismatch is an error, never a payload.
func Decode(b []byte, maxRecord int) ([]byte, int, error) {
	if len(b) < FrameHeader {
		return nil, 0, ErrShort
	}
	n, err := payloadLen(b, maxRecord)
	if err != nil {
		return nil, 0, err
	}
	if len(b)-FrameHeader < n {
		return nil, 0, ErrShort
	}
	p := b[FrameHeader : FrameHeader+n]
	if checksum(b[:4], p) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrCRC
	}
	return p, FrameHeader + n, nil
}

// ReadRecord reads one record from r with Decode's bounds: the length field
// is checked against maxRecord before the payload buffer is allocated. A
// stream that ends before the first byte returns io.EOF.
func ReadRecord(r io.Reader, maxRecord int) ([]byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := payloadLen(hdr[:], maxRecord)
	if err != nil {
		return nil, err
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	if checksum(hdr[:4], p) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, ErrCRC
	}
	return p, nil
}

// Each validates that b is a run of whole, intact log records, calls fn (if
// non-nil) on each payload in order, and returns how many records b holds.
// An error from fn stops the walk and is returned with the record's position.
func Each(b []byte, fn func(payload []byte) error) (int, error) {
	n := 0
	for off := 0; off < len(b); n++ {
		p, m, err := Decode(b[off:], MaxRecord)
		if err == nil && fn != nil {
			err = fn(p)
		}
		if err != nil {
			return 0, fmt.Errorf("record %d at byte %d: %w", n, off, err)
		}
		off += m
	}
	return n, nil
}

// Checksum is the CRC that Position reports, over b: a replica proves its log
// is a bitwise prefix of its primary's by matching it over that prefix.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Config names one log: the fault-site prefix its file operations consult
// and the identity its header must carry.
type Config struct {
	Site     string
	Identity string
}

// Stats is a snapshot of one log's traffic since it was opened.
type Stats struct {
	Appends      uint64 // records appended (Create's initial records excluded)
	Fsyncs       uint64 // append fsyncs
	FsyncSeconds float64
	ReplayedRecs uint64 // records Open replayed
	TornBytes    uint64 // torn-tail bytes Open truncated
}

// Log is one open durable log. Appends are serialized, and every successful
// Append is fsynced before it returns.
//
// Fail-closed poisoning: after a write or fsync fails, or panics, the bytes
// on disk are unknown. Retrying could record the same thing twice, carrying
// on would append onto a possibly torn tail; so the first such failure
// poisons the log, and every later Append returns it (wrapping ErrPoisoned)
// until a reopen's recovery resolves what actually persisted.
type Log struct {
	f *faultFile

	mu      sync.Mutex // serializes appends and guards the position
	size    int64      // exact file length
	records uint64     // records after the header
	crc     uint32     // CRC-32 (IEEE) over all size bytes

	poison atomic.Pointer[error]

	appends    atomic.Uint64
	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
	replayed   uint64
	torn       uint64
}

// Open opens the log at path, creating it if it is absent or empty, and
// replays every intact record through replay in file order. replay receives
// each record's frame offset and its payload, which is only valid during the
// call; an error from replay refuses the open. The torn tail, if any, is
// truncated away under the recovery rule in the package comment.
func Open(path string, cfg Config, replay func(off int64, payload []byte) error) (*Log, error) {
	f, err := openFile(path, cfg.Site)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	data := make([]byte, size)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err == nil {
		_, err = io.ReadFull(f, data)
	}
	if err == nil && size == 0 {
		f.Close()
		return Create(path, cfg, nil)
	}
	l := &Log{f: f}
	if err == nil {
		err = l.recover(data, cfg.Identity, replay)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover replays the file's bytes into l under the recovery rule, repairs
// a torn tail, and leaves the file positioned at the end of the intact
// prefix.
func (l *Log) recover(data []byte, identity string, replay func(int64, []byte) error) error {
	off, err := parseHeader(data, identity)
	if err != nil {
		return err
	}
	for off < len(data) {
		rest := data[off:]
		if len(rest) < FrameHeader || int64(binary.LittleEndian.Uint32(rest)) > int64(len(rest)-FrameHeader) {
			break // incomplete final frame: the torn tail
		}
		p, n, err := Decode(rest, MaxRecord)
		if err != nil {
			if len(bytes.TrimLeft(rest, "\x00")) == 0 {
				break // zeros to EOF: the torn tail
			}
			return fmt.Errorf("corrupt record at offset %d: %w", off, err)
		}
		if err := replay(int64(off), p); err != nil {
			return fmt.Errorf("record at offset %d: %w", off, err)
		}
		off += n
		l.records++
	}
	if off < len(data) {
		l.torn = uint64(len(data) - off)
		if err := l.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("torn-tail repair: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("torn-tail repair: %w", err)
		}
	}
	if _, err := l.f.Seek(int64(off), io.SeekStart); err != nil {
		return err
	}
	l.size, l.replayed, l.crc = int64(off), l.records, crc32.ChecksumIEEE(data[:off])
	return nil
}

// appendHeader appends the file header for identity.
func appendHeader(buf []byte, identity string) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(identity)))
	return append(buf, identity...)
}

// parseHeader checks the file header at the head of b and returns its length.
func parseHeader(b []byte, identity string) (int, error) {
	fixed := len(magic) + 4
	if len(b) < fixed || string(b[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: file starts %q, want magic %q", ErrFormat, b[:min(len(b), len(magic))], magic)
	}
	n := binary.LittleEndian.Uint32(b[len(magic):])
	if uint64(n) > uint64(len(b)-fixed) {
		return 0, fmt.Errorf("%w: header truncated in its %d-byte identity", ErrFormat, n)
	}
	if got := string(b[fixed : fixed+int(n)]); got != identity {
		return 0, fmt.Errorf("log holds %q, want %q", got, identity)
	}
	return fixed + int(n), nil
}

// Create atomically replaces whatever is at path with a new log holding the
// header and frames, which must be whole records (as built by AppendRecord).
// The log is written to a temporary file, fsynced and renamed into place, and
// the directory is fsynced, so a crash at any point leaves either the old
// file or a complete new one — never a half-written log.
func Create(path string, cfg Config, frames []byte) (*Log, error) {
	records, err := Each(frames, nil)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := openFile(tmp, cfg.Site)
	if err != nil {
		return nil, err
	}
	buf := append(appendHeader(nil, cfg.Identity), frames...)
	// A stale tmp from a crashed create may linger; start it clean.
	err = f.Truncate(0)
	if err == nil {
		_, err = f.Write(buf)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("creating %s: %w", path, err)
	}
	return &Log{f: f, size: int64(len(buf)), records: uint64(records), crc: crc32.ChecksumIEEE(buf)}, nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append durably appends frames — whole records, built by AppendRecord or
// read verbatim off another log — with one write and one fsync. Frames that
// do not decode are refused before anything is written, without poisoning.
// Any write or fsync failure, or a panic between the two, poisons the log.
func (l *Log) Append(frames []byte) error {
	if len(frames) == 0 {
		return nil
	}
	n, err := Each(frames, nil)
	if err != nil {
		return fmt.Errorf("refusing append: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.poison.Load(); p != nil {
		return *p
	}
	// The defer (not only the error paths) poisons on a panic between write
	// and sync too: durability is unknown there as well.
	committed := false
	defer func() {
		if !committed {
			l.fail(errors.New("append did not complete"))
		}
	}()
	if _, err := l.f.Write(frames); err != nil {
		return l.fail(fmt.Errorf("write: %w", err))
	}
	begin := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("fsync: %w", err))
	}
	committed = true
	l.fsyncs.Add(1)
	l.fsyncNanos.Add(uint64(time.Since(begin)))
	l.appends.Add(uint64(n))
	l.size += int64(len(frames))
	l.records += uint64(n)
	l.crc = crc32.Update(l.crc, crc32.IEEETable, frames)
	return nil
}

// fail poisons the log with its first failure and returns the poison error.
func (l *Log) fail(cause error) error {
	err := fmt.Errorf("%w: %w", ErrPoisoned, cause)
	l.poison.CompareAndSwap(nil, &err)
	return *l.poison.Load()
}

// Poisoned returns the failure that poisoned the log, or nil.
func (l *Log) Poisoned() error {
	if p := l.poison.Load(); p != nil {
		return *p
	}
	return nil
}

// Position returns the log's exact byte length, its record count, and the
// CRC-32 (IEEE) of all its bytes, in one consistent snapshot.
func (l *Log) Position() (size int64, records uint64, crc uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size, l.records, l.crc
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		Fsyncs:       l.fsyncs.Load(),
		FsyncSeconds: float64(l.fsyncNanos.Load()) / 1e9,
		ReplayedRecs: l.replayed,
		TornBytes:    l.torn,
	}
}

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }
