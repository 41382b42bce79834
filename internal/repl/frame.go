// Package repl is the primary/replica replication protocol behind r2td
// clustering (DESIGN.md §14). The primary owns the authoritative ε-ledger and
// streams length-prefixed, CRC-checked frames over plain TCP to replicas:
// every ledger record (charges, readiness probes, fencing-epoch records),
// every durable row batch, and every freshly released answer. Replicas apply
// the stream idempotently (every chunk carries its absolute position, so
// replays after a reconnect are skipped, never double-applied) and
// acknowledge ledger bytes; the primary's Hub can require a minimum number
// of acknowledgements before a charge is admitted, which is what makes
// failover ε-safe: an admitted charge is durable on at least SyncReplicas
// replicas before any analyst sees its answer.
//
// The package is transport and framing only — the standard library plus the
// internal/wal record codec, with no knowledge of ledgers or tables. The
// server supplies a Source (primary side) that validates handshakes and
// produces catch-up frames, and an Applier (replica side) that applies each
// frame to local state. Fencing decisions (epoch comparison, ledger prefix
// identity) are made by those callbacks; the protocol just carries the
// epochs.
//
// Wire format: every frame is one record of the durable-log codec
// (internal/wal — the same framing as the ledger and table WALs on disk),
// whose payload starts with the frame's type and epoch:
//
//	frame:   u32 len(record) | u32 CRC-32 (IEEE) over len and record | record   (little-endian)
//	record:  u8 type | u64 epoch (big-endian) | payload
//
// The CRC covers the length, type, epoch and payload, so a frame whose
// header was torn cannot smuggle a valid-looking payload through. Decoding
// rejects an oversized length field before allocating anything (the
// FuzzReplFrame contract: arbitrary bytes never panic, never over-allocate,
// and never yield a CRC-failing frame that gets applied). Message payloads
// (proto.go) are big-endian.
//
// Fault sites (internal/fault): repl.send fires on every frame write,
// repl.recv on every frame read, and repl.handshake at the start of both
// sides' handshakes — err rules at send/recv simulate a network partition.
package repl

import (
	"encoding/binary"
	"fmt"
	"io"

	"r2t/internal/fault"
	"r2t/internal/wal"
)

// Frame types. Hello/Ack flow replica→primary; everything else
// primary→replica, except the router↔shard sub-query pair: a router opens a
// connection whose FIRST frame is TypeSubQuery (instead of TypeHello), and
// the hub answers each sub-query with one TypePartial on the same connection
// (the connection is reusable for further sub-queries).
const (
	TypeHello     byte = 1 // JSON Hello: node, epoch, ledger size+CRC, row counts
	TypeWelcome   byte = 2 // JSON Welcome: accept (catch-up target) or refuse
	TypeLedger    byte = 3 // ledger chunk: end offset | record seq | raw ledger bytes
	TypeAck       byte = 4 // replica ack: applied ledger offset | record seq
	TypeRows      byte = 5 // durable row batch: dataset | relation | start row | payload
	TypeAnswer    byte = 6 // freshly released answer for the free-replay cache (JSON)
	TypeHeartbeat byte = 7 // liveness + primary ledger position
	TypeSubQuery  byte = 8 // router→shard: uncharged sub-query (JSON, internal/shard)
	TypePartial   byte = 9 // shard→router: partial-aggregate reply (JSON, internal/shard)
)

// Fault-injection site names (package fault).
const (
	SiteSend      = "repl.send"
	SiteRecv      = "repl.recv"
	SiteHandshake = "repl.handshake"
)

// prefixSize is the type byte and epoch heading every frame's record;
// headerSize the whole fixed overhead, record header included.
const (
	prefixSize = 1 + 8
	headerSize = wal.FrameHeader + prefixSize
)

// DefaultMaxPayload bounds one frame's payload. Row frames carry at most one
// segstore WAL record (64 MiB) plus identification, so 72 MiB leaves
// headroom; anything larger on the wire is corruption, rejected before any
// allocation happens.
const DefaultMaxPayload = 72 << 20

// Protocol errors — the record codec's. ErrFrameTooLarge and ErrCRC mean the
// stream cannot be trusted past this point; callers drop the connection and
// re-handshake.
var (
	ErrFrameTooLarge = wal.ErrTooLarge
	ErrCRC           = wal.ErrCRC
	ErrShortFrame    = wal.ErrShort
)

// Frame is one protocol message. Epoch is the sender's fencing epoch;
// receivers reject frames from older reigns (DESIGN.md §14).
type Frame struct {
	Type    byte
	Epoch   uint64
	Payload []byte
}

// EncodeFrame returns f's wire encoding.
func EncodeFrame(f Frame) []byte {
	var prefix [prefixSize]byte
	prefix[0] = f.Type
	binary.BigEndian.PutUint64(prefix[1:], f.Epoch)
	return wal.AppendRecord(make([]byte, 0, headerSize+len(f.Payload)), prefix[:], f.Payload)
}

// recordBound is the record bound for a frame payload bound (0 selects the
// default).
func recordBound(maxPayload int) int {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return prefixSize + maxPayload
}

// splitFrame reads the type and epoch off a decoded record.
func splitFrame(rec []byte) (Frame, error) {
	if len(rec) < prefixSize {
		return Frame{}, fmt.Errorf("%w: %d-byte record lacks the type and epoch", ErrShortFrame, len(rec))
	}
	return Frame{Type: rec[0], Epoch: binary.BigEndian.Uint64(rec[1:prefixSize]), Payload: rec[prefixSize:]}, nil
}

// DecodeFrame parses one frame from the head of b, returning the frame and
// the number of bytes consumed. It is total: no input can make it panic, and
// the length field is validated against maxPayload (0 selects the default)
// before the available bytes are consulted, so a torn or hostile header
// cannot trigger a huge allocation. A CRC mismatch is an error — the frame is
// never returned for application.
func DecodeFrame(b []byte, maxPayload int) (Frame, int, error) {
	rec, n, err := wal.Decode(b, recordBound(maxPayload))
	if err != nil {
		return Frame{}, 0, err
	}
	f, err := splitFrame(rec)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, n, nil
}

// WriteFrame writes f to w. The repl.send fault site fires first, so chaos
// tests can sever the primary→replica (or ack) direction deterministically.
func WriteFrame(w io.Writer, f Frame) error {
	if err := fault.Check(SiteSend); err != nil {
		return err
	}
	_, err := w.Write(EncodeFrame(f))
	return err
}

// ReadFrame reads one frame from r with the same bounds discipline as
// DecodeFrame: the length field is checked against maxPayload before the
// record buffer is allocated. The repl.recv fault site fires before the read.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	if err := fault.Check(SiteRecv); err != nil {
		return Frame{}, err
	}
	rec, err := wal.ReadRecord(r, recordBound(maxPayload))
	if err != nil {
		return Frame{}, err
	}
	return splitFrame(rec)
}
