package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"r2t/internal/wal"
)

// LedgerEntry is one ledger record's payload. Entries are append-only — the
// ledger is the authoritative record of privacy spend, so nothing ever
// rewrites or compacts it. Two kinds exist:
//
//   - Kind "" (a charge): dataset, ε, and audit context. Epoch, when set,
//     records which fencing reign admitted the charge.
//   - Kind "epoch": a fencing-epoch record written at primary startup and at
//     every promotion (DESIGN.md §14). It carries no spend; its Epoch/Node
//     say which node claimed which reign, and replay takes the maximum as the
//     node's current epoch. Epoch records never carry a dataset or ε.
type LedgerEntry struct {
	Time        string  `json:"time"` // RFC 3339, informational
	Kind        string  `json:"kind,omitempty"`
	Dataset     string  `json:"dataset,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Query       string  `json:"query,omitempty"`       // normalized SQL, audit only
	Fingerprint string  `json:"fingerprint,omitempty"` // cache key of the release
	Epoch       uint64  `json:"epoch,omitempty"`       // fencing epoch (see Kind)
	Node        string  `json:"node,omitempty"`        // node name, epoch records only
}

// KindEpoch marks a fencing-epoch ledger record.
const KindEpoch = "epoch"

// kindProbe is what an empty record decodes to: a readiness probe, which
// carries no spend and has no JSON form.
const kindProbe = "probe"

// ErrLedgerPoisoned reports that a previous write's durability is unknown
// and the ledger refuses all further writes until it is reopened. It is the
// durable log's poison sentinel; the server maps it to 503.
var ErrLedgerPoisoned = wal.ErrPoisoned

// ledgerLog is the ledger's schema over the durable log: the ledger.* fault
// sites and the header identity.
var ledgerLog = wal.Config{Site: "ledger", Identity: "ledger"}

// LedgerMirror replicates one durable ledger append. It is called under the
// ledger mutex, strictly in file order, after the bytes are locally durable;
// frames are the appended records exactly as written, size and records the
// post-append totals (end offset and record count). sync asks the mirror to
// confirm replica durability before returning — a non-nil error from a sync
// mirror aborts the charge (SpendWith never admits it) but does NOT poison
// the ledger: the local bytes are known-durable, replay merely overcounts by
// one unadmitted charge, which is the safe side.
type LedgerMirror func(frames []byte, size int64, records uint64, sync bool) error

// Ledger is the durable append-only budget write-ahead log: one durable-log
// record (internal/wal) per JSON LedgerEntry, fsynced by Append before it
// returns.
//
// Charge ordering (the durability contract, see DESIGN.md): the server calls
// Append from inside Budget.SpendWith's commit hook, so a charge is on disk
// *before* it is admitted in memory, and admitted *before* the mechanism
// runs. A crash at any point therefore errs on the safe side — the ledger
// may record a charge whose mechanism never released an answer (wasting ε),
// but an answer can never have been released without its charge being
// durable first. Under replication the same hook also blocks on the mirror,
// extending the contract to: durable locally, then durable on SyncReplicas
// replicas, then admitted.
//
// Fail-closed poisoning (DESIGN.md §9) is the log's: after any failed write
// or sync, Append and Probe return ErrLedgerPoisoned until a reopen's replay
// resolves what persisted. Replay may overcount (a durable charge whose
// Append reported failure wastes ε, the safe side) but never undercounts an
// admitted charge: admission requires Append to have returned nil. The log's
// Position lets a primary verify a replica's ledger is a bitwise prefix of
// its own.
type Ledger struct {
	mu  sync.Mutex
	log *wal.Log
	// probeTTL rate-limits Probe's physical append+fsync: within probeTTL of
	// the last successful durable write (a charge append or a prior probe),
	// Probe reports ready from that fact alone without touching the disk.
	// /readyz is unauthenticated, so without the cap anyone could grow the
	// ledger and serialize fsyncs against the charge path at will. Tests set
	// it to 0 to force every probe through the seam.
	probeTTL  time.Duration
	lastWrite time.Time

	replayedEpoch uint64 // max epoch record seen at open or appended since

	mirror LedgerMirror
}

// defaultProbeTTL bounds probe writes to one per window: a stale-by-seconds
// readiness signal is fine, an attacker-driven fsync per request is not.
const defaultProbeTTL = 5 * time.Second

// OpenLedger opens (creating if absent) the ledger at path, replays it, and
// returns the per-dataset ε already charged. Replay follows the durable log's
// recovery rule: a torn tail is truncated away — its charge was never
// admitted, admission waits for the fsync — and a complete record that fails
// its CRC or is not a valid entry is a hard error. So is a JSON-lines ledger
// from before the framed format: refused, never read as zero spend.
func OpenLedger(path string) (*Ledger, map[string]float64, error) {
	spent := make(map[string]float64)
	var maxEpoch uint64
	log, err := wal.Open(path, ledgerLog, func(_ int64, p []byte) error {
		e, err := parseLedgerEntry(p)
		switch {
		case err != nil:
			return err
		case e.Kind == "":
			spent[e.Dataset] += e.Epsilon
		case e.Kind == KindEpoch:
			maxEpoch = max(maxEpoch, e.Epoch)
		}
		return nil
	})
	if errors.Is(err, wal.ErrFormat) {
		return nil, nil, fmt.Errorf("ledger %s: %w (a JSON-lines ledger written before the framed log format is refused, not read as zero spend; carry its spend over by hand)", path, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	return &Ledger{log: log, probeTTL: defaultProbeTTL, replayedEpoch: maxEpoch}, spent, nil
}

// parseLedgerEntry decodes and validates one record payload. Replay
// (OpenLedger) and the replica's stream applier share it, so a record is
// either valid everywhere or corruption everywhere.
func parseLedgerEntry(p []byte) (LedgerEntry, error) {
	if len(p) == 0 {
		return LedgerEntry{Kind: kindProbe}, nil
	}
	var e LedgerEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return e, fmt.Errorf("corrupt entry: %w", err)
	}
	switch e.Kind {
	case "":
		if e.Dataset == "" || e.Epsilon <= 0 {
			return e, fmt.Errorf("invalid entry (dataset %q, ε=%g)", e.Dataset, e.Epsilon)
		}
	case KindEpoch:
		// Epoch records carry no spend; one that smuggles a dataset or ε
		// is corruption, not a charge to silently drop.
		if e.Epoch == 0 || e.Dataset != "" || e.Epsilon != 0 {
			return e, fmt.Errorf("invalid epoch record (epoch %d, dataset %q, ε=%g)", e.Epoch, e.Dataset, e.Epsilon)
		}
	default:
		return e, fmt.Errorf("unknown entry kind %q", e.Kind)
	}
	return e, nil
}

// SetMirror installs the replication hook (see LedgerMirror). Install before
// the server starts charging; a nil mirror disables replication.
func (l *Ledger) SetMirror(m LedgerMirror) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mirror = m
}

// appendLocked durably appends frames (whole records), then runs the mirror.
// Caller holds l.mu. The mirror runs only after local durability is
// established, so a mirror failure aborts the caller's charge without
// poisoning: the local bytes are fine, replay just overcounts.
func (l *Ledger) appendLocked(frames []byte, what string, sync bool) error {
	if err := l.log.Append(frames); err != nil {
		return fmt.Errorf("ledger %s: %w", what, err)
	}
	l.lastWrite = time.Now()
	if l.mirror != nil {
		size, records, _ := l.log.Position()
		if err := l.mirror(frames, size, records, sync); err != nil {
			return fmt.Errorf("ledger replication: %w", err)
		}
	}
	return nil
}

// Append durably logs one charge: the entry is written as one record and
// fsynced before Append returns. Callers invoke it from Budget.SpendWith so
// the charge is only admitted if durability succeeded. Any failure — error,
// short write, or panic mid-append — poisons the ledger (see the type
// comment); the caller must not retry. Under replication the synchronous
// mirror runs after the local fsync: a charge is admitted only once enough
// replicas hold it too.
func (l *Ledger) Append(e LedgerEntry) error {
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	p, err := json.Marshal(e)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(wal.AppendRecord(nil, p), "append", true)
}

// AppendEpoch durably writes a fencing-epoch record: this node claims reign
// epoch. It is streamed to replicas fire-and-forget — fencing safety never
// depends on a replica having seen it (a replica that missed it is caught by
// the handshake's prefix check instead).
func (l *Ledger) AppendEpoch(epoch uint64, node string) error {
	p, err := json.Marshal(LedgerEntry{
		Time:  time.Now().UTC().Format(time.RFC3339Nano),
		Kind:  KindEpoch,
		Epoch: epoch,
		Node:  node,
	})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(wal.AppendRecord(nil, p), "epoch append", false); err != nil {
		return err
	}
	l.replayedEpoch = max(l.replayedEpoch, epoch)
	return nil
}

// AppendRaw durably appends replicated ledger bytes verbatim — the replica
// side of the protocol, preserving the invariant that a replica's ledger is
// a bitwise prefix of its primary's. b must be whole records; bytes that do
// not decode are refused before anything is written.
func (l *Ledger) AppendRaw(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(b, "raw append", false)
}

// Probe verifies the ledger is still writable by appending and fsyncing an
// empty record (replay skips it, so probes cost no ε and leave no charge).
// The readiness endpoint calls it; like Append it is fail-closed — a probe
// whose durability is unknown poisons the ledger rather than letting real
// charges race a dying disk.
//
// Physical probes are rate-limited to one per probeTTL: a successful durable
// write in the window (a charge append counts — it is a better probe than
// the probe) answers ready for free, so a busy server's /readyz never adds
// probe bytes and an unauthenticated caller cannot hammer the fsync path.
// The poisoned check is always live.
//
// Replicas must never Probe: a locally grown ledger would no longer be a
// prefix of the primary's. The server's readiness handler is role-aware.
func (l *Ledger) Probe() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Poisoned(); err != nil {
		return err
	}
	if !l.lastWrite.IsZero() && time.Since(l.lastWrite) < l.probeTTL {
		return nil
	}
	return l.appendLocked(wal.AppendRecord(nil), "probe", false) // an empty record
}

// Poisoned reports whether the ledger has rejected writes since a failed
// append (metrics and readiness expose it).
func (l *Ledger) Poisoned() bool { return l.log.Poisoned() != nil }

// Position returns the ledger's byte length, record count (charges, epoch
// records, probes — the unit of the replication lag metric) and CRC in one
// consistent snapshot.
func (l *Ledger) Position() (size int64, records uint64, crc uint32) {
	return l.log.Position()
}

// Stats snapshots the ledger's log counters (exported on /metrics beside the
// table WALs').
func (l *Ledger) Stats() wal.Stats { return l.log.Stats() }

// ReplayedEpoch returns the highest fencing epoch in the ledger (0 if none).
func (l *Ledger) ReplayedEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayedEpoch
}

// Close closes the underlying file.
func (l *Ledger) Close() error { return l.log.Close() }
