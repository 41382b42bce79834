package segstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"r2t/internal/storage"
	"r2t/internal/wal"
)

// ErrPoisoned is wrapped by every append attempted after a WAL write or
// fsync of unknown durability failed — the durable log's poison sentinel.
// The store fails closed store-wide: no table accepts writes until restart.
var ErrPoisoned = wal.ErrPoisoned

// ErrClosed is wrapped by appends attempted after Close.
var ErrClosed = errors.New("segstore: store closed")

// Segment describes one sealed, immutable run of a table's rows: the rows of
// a single WAL record, covering global row ids [StartRow, StartRow+Rows).
// Segments are sealed the moment their record is durable and never change —
// the on-disk shadow of the in-memory append-only Rows prefix that
// storage.Table.Snapshot readers and extended join-index parts rely on.
type Segment struct {
	Off      int64 // record frame offset in the WAL file
	Bytes    int   // frame header + payload size
	StartRow int   // first global row id covered
	Rows     int
}

// Stats is a snapshot of the store's traffic since Open. The embedded log
// counters are summed over every table's WAL; Appends counts records.
type Stats struct {
	wal.Stats
	AppendedRows  uint64
	ReplayedRows  uint64
	Bootstrapped  int    // tables seeded from in-memory rows (no prior WAL)
	Recovered     int    // tables recovered from an existing WAL
	Segments      int    // sealed segments across all tables
	SegmentRows   uint64 // rows covered by those segments
	SegmentBytes  uint64
	PoisonedSince bool // a write of unknown durability has poisoned the store
}

// Store owns one WAL per relation of an instance and installs itself as each
// table's write-ahead AppendSink, making the instance durable: every Append
// is fsynced to the relation's log before it becomes visible, and Open
// replays the logs back through the ordinary Append path on restart.
type Store struct {
	inst *storage.Instance
	wals map[string]*tableWAL

	// wmu serializes Insert across relations: the incremental FK check reads
	// referenced tables' indexes, which a concurrent writer could be
	// extending.
	wmu sync.Mutex

	closed atomic.Bool
	mirror atomic.Pointer[RowsMirror]

	appendedRows atomic.Uint64
	replayedRows uint64
	bootstrapped int
	recovered    int
}

// tableWAL is one relation's append-only log; it implements
// storage.AppendSink. The table's own appendMu serializes sink calls, so mu
// only mediates between an appender and Stats/Segments readers.
type tableWAL struct {
	store *Store
	name  string
	log   *wal.Log

	mu    sync.Mutex
	nRows int
	segs  []Segment

	payload, frames []byte // encode buffers, reused across appends
}

// Open makes inst durable under dir (created if missing). Per relation: an
// existing `<name>.wal` is replayed into the table — which must be empty;
// refusing to merge a log into independently loaded rows keeps recovery
// unambiguous; a relation with no WAL yet is bootstrapped with its current
// rows (e.g. just loaded from CSV) by wal.Create, atomically, so a crash
// mid-bootstrap leaves no half-written log to be mistaken for a durable one.
// Every table then gets its WAL installed as AppendSink.
//
// On error the store is closed and inst may hold partially replayed tables;
// callers should discard it.
func Open(dir string, inst *storage.Instance) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{inst: inst, wals: make(map[string]*tableWAL)}
	for _, name := range inst.Schema.Names() {
		t := inst.Table(name)
		w := &tableWAL{store: s, name: name}
		cfg := wal.Config{Site: "segstore", Identity: fmt.Sprintf("%s(%d)", name, len(t.Rel.Attrs))}
		path := filepath.Join(dir, name+".wal")
		_, statErr := os.Stat(path)
		var err error
		switch {
		case statErr == nil:
			if t.Len() > 0 {
				err = fmt.Errorf("segstore: %s: refusing to replay %s into a table already holding %d rows", name, path, t.Len())
			} else {
				err = w.replay(path, cfg, t)
				s.recovered++
			}
		case errors.Is(statErr, os.ErrNotExist):
			err = w.bootstrap(path, cfg, t)
			s.bootstrapped++
		default:
			err = statErr
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		s.wals[name] = w
		t.SetAppendSink(w)
	}
	return s, nil
}

// replay recovers the durable prefix of path into t: intact records are
// appended through the ordinary (sink-less, at this point) Append path, each
// sealing a segment at its record's offset.
func (w *tableWAL) replay(path string, cfg wal.Config, t *storage.Table) error {
	ncols := len(t.Rel.Attrs)
	log, err := wal.Open(path, cfg, func(off int64, p []byte) error {
		rows, err := DecodePayload(p, ncols)
		if err != nil {
			return err
		}
		if err := t.Append(rows...); err != nil {
			return err
		}
		w.segs = append(w.segs, Segment{Off: off, Bytes: wal.FrameHeader + len(p), StartRow: w.nRows, Rows: len(rows)})
		w.nRows += len(rows)
		return nil
	})
	if err != nil {
		return fmt.Errorf("segstore: %s: replay: %w", w.name, err)
	}
	w.log = log
	w.store.replayedRows += uint64(w.nRows)
	return nil
}

// bootstrap creates the WAL at path holding t's current rows.
func (w *tableWAL) bootstrap(path string, cfg wal.Config, t *storage.Table) error {
	rows, _ := t.Snapshot()
	var frames []byte
	for start := 0; start < len(rows); start += maxWALBatchRows {
		end := min(start+maxWALBatchRows, len(rows))
		at := len(frames)
		frames = w.appendRecord(frames, rows[start:end])
		w.segs = append(w.segs, Segment{Off: int64(at), Bytes: len(frames) - at, StartRow: start, Rows: end - start})
	}
	log, err := wal.Create(path, cfg, frames)
	if err != nil {
		return fmt.Errorf("segstore: %s: bootstrap: %w", w.name, err)
	}
	// The records sit right after the header.
	size, _, _ := log.Position()
	for i := range w.segs {
		w.segs[i].Off += size - int64(len(frames))
	}
	w.log = log
	w.nRows = len(rows)
	return nil
}

// appendRecord frames rows as one log record onto buf.
func (w *tableWAL) appendRecord(buf []byte, rows []storage.Row) []byte {
	w.payload = AppendPayload(w.payload[:0], rows)
	return wal.AppendRecord(buf, w.payload)
}

// AppendRows is the storage.AppendSink hook: frame, write, and fsync the
// batch before storage.Table.Append makes it visible in memory. The caller
// (the table) holds its appendMu, so calls are serialized per table. A write
// or fsync failure leaves durability unknown and poisons the log, and with
// it the whole store.
func (w *tableWAL) AppendRows(rows []storage.Row) error {
	if err := w.store.writable(); err != nil {
		return fmt.Errorf("segstore: %s: append rejected: %w", w.name, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	base, _, _ := w.log.Position()
	w.frames = w.frames[:0]
	staged := make([]Segment, 0, 1)
	for start := 0; start < len(rows); start += maxWALBatchRows {
		end := min(start+maxWALBatchRows, len(rows))
		at := len(w.frames)
		w.frames = w.appendRecord(w.frames, rows[start:end])
		staged = append(staged, Segment{Off: base + int64(at), Bytes: len(w.frames) - at, StartRow: w.nRows + start, Rows: end - start})
	}
	if err := w.log.Append(w.frames); err != nil {
		return fmt.Errorf("segstore: %s: WAL append: %w", w.name, err)
	}
	w.nRows += len(rows)
	w.segs = append(w.segs, staged...)
	w.store.appendedRows.Add(uint64(len(rows)))
	return nil
}

// writable returns why the store refuses writes, or nil: it is closed, or
// some table's log is poisoned.
func (s *Store) writable() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.Poisoned()
}

// Poisoned returns the failure that poisoned the store — the first poisoned
// table log found — or nil.
func (s *Store) Poisoned() error {
	for _, w := range s.wals {
		if err := w.log.Poisoned(); err != nil {
			return err
		}
	}
	return nil
}

// RowsMirror observes every durably inserted row batch: relation, the global
// row id of the batch's first row, and the rows themselves. The r2td
// replication path installs one to ship batches to replicas. It runs under
// the store's writer lock (batches arrive in row-id order, never
// interleaved) after local durability, and is fire-and-forget — rows are
// lazily replicated state, re-fetched by a reconnect handshake if a stream
// drops, so the mirror has no error to return.
type RowsMirror func(relation string, startRow int, rows []storage.Row)

// SetMirror installs (or, with nil, removes) the row replication hook.
func (s *Store) SetMirror(m RowsMirror) {
	if m == nil {
		s.mirror.Store(nil)
		return
	}
	s.mirror.Store(&m)
}

// Insert is the store's checked write path: one store-wide writer lock, the
// instance's incremental PK/FK validation, then the durable append through
// the table's sink, then the replication mirror.
func (s *Store) Insert(relation string, rows ...storage.Row) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.writable(); err != nil {
		return fmt.Errorf("segstore: insert rejected: %w", err)
	}
	m := s.mirror.Load()
	start := 0
	if m != nil {
		if t := s.inst.Table(relation); t != nil {
			start = t.Len()
		}
	}
	if err := s.inst.InsertChecked(relation, rows...); err != nil {
		return err
	}
	if m != nil {
		(*m)(relation, start, rows)
	}
	return nil
}

// RowCounts returns each relation's durable row count — what a replica
// advertises in its handshake Hello so the primary can compute row catch-up.
func (s *Store) RowCounts() map[string]int {
	out := make(map[string]int, len(s.wals))
	for name, w := range s.wals {
		w.mu.Lock()
		out[name] = w.nRows
		w.mu.Unlock()
	}
	return out
}

// Segments returns a copy of the sealed segments of one relation's log.
func (s *Store) Segments(relation string) []Segment {
	w := s.wals[relation]
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Segment(nil), w.segs...)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		AppendedRows:  s.appendedRows.Load(),
		ReplayedRows:  s.replayedRows,
		Bootstrapped:  s.bootstrapped,
		Recovered:     s.recovered,
		PoisonedSince: s.Poisoned() != nil,
	}
	for _, w := range s.wals {
		ls := w.log.Stats()
		st.Appends += ls.Appends
		st.Fsyncs += ls.Fsyncs
		st.FsyncSeconds += ls.FsyncSeconds
		st.ReplayedRecs += ls.ReplayedRecs
		st.TornBytes += ls.TornBytes
		w.mu.Lock()
		st.Segments += len(w.segs)
		for _, seg := range w.segs {
			st.SegmentRows += uint64(seg.Rows)
			st.SegmentBytes += uint64(seg.Bytes)
		}
		w.mu.Unlock()
	}
	return st
}

// Close detaches nothing — tables keep their sinks so late writes fail
// closed rather than silently losing durability — but closes every WAL file
// and refuses subsequent appends.
func (s *Store) Close() error {
	s.closed.Store(true)
	var first error
	for _, w := range s.wals {
		if err := w.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
