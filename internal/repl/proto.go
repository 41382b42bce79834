package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Hello is the replica's handshake payload (TypeHello, JSON): who it is, the
// highest fencing epoch it has seen, exactly how much ledger it already holds
// (size plus a CRC over those bytes, so the primary can verify the replica's
// ledger is a bitwise prefix of its own and refuse a diverged one), and its
// per-dataset per-relation durable row counts for row catch-up.
type Hello struct {
	Node       string                    `json:"node"`
	Epoch      uint64                    `json:"epoch"`
	LedgerSize int64                     `json:"ledger_size"`
	LedgerCRC  uint32                    `json:"ledger_crc"`
	Rows       map[string]map[string]int `json:"rows,omitempty"`
}

// Welcome is the primary's handshake reply (TypeWelcome, JSON). A non-empty
// Refuse rejects the replica (fenced primary, diverged ledger, diverged
// rows); otherwise LedgerSize/LedgerRecords fix the catch-up target — the
// replica reports ready only once it has applied at least that much ledger.
type Welcome struct {
	Node          string `json:"node"`
	Epoch         uint64 `json:"epoch"`
	LedgerSize    int64  `json:"ledger_size"`
	LedgerRecords uint64 `json:"ledger_records"`
	Refuse        string `json:"refuse,omitempty"`
}

// maxNameLen bounds dataset/relation names inside binary payloads.
const maxNameLen = 1 << 16

// EncodeLedgerChunk frames a run of raw ledger bytes ending at absolute file
// offset end, where seq is the primary's total ledger record count at
// that offset. Offsets make application idempotent; seq feeds the
// r2td_repl_lag_records metric.
func EncodeLedgerChunk(end int64, seq uint64, data []byte) []byte {
	buf := make([]byte, 0, 16+len(data))
	buf = binary.BigEndian.AppendUint64(buf, uint64(end))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return append(buf, data...)
}

// DecodeLedgerChunk parses a TypeLedger payload.
func DecodeLedgerChunk(b []byte) (end int64, seq uint64, data []byte, err error) {
	if len(b) < 16 {
		return 0, 0, nil, errors.New("repl: ledger chunk truncated")
	}
	end = int64(binary.BigEndian.Uint64(b))
	seq = binary.BigEndian.Uint64(b[8:])
	if end < 0 || end-int64(len(b)-16) < 0 {
		return 0, 0, nil, fmt.Errorf("repl: ledger chunk with implausible end offset %d for %d bytes", end, len(b)-16)
	}
	return end, seq, b[16:], nil
}

// EncodeAck frames a replica acknowledgement: the ledger offset and record
// count durably applied so far.
func EncodeAck(offset int64, seq uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.BigEndian.AppendUint64(buf, uint64(offset))
	return binary.BigEndian.AppendUint64(buf, seq)
}

// DecodeAck parses a TypeAck payload.
func DecodeAck(b []byte) (offset int64, seq uint64, err error) {
	if len(b) != 16 {
		return 0, 0, fmt.Errorf("repl: ack payload is %d bytes, want 16", len(b))
	}
	offset = int64(binary.BigEndian.Uint64(b))
	if offset < 0 {
		return 0, 0, fmt.Errorf("repl: negative ack offset %d", offset)
	}
	return offset, binary.BigEndian.Uint64(b[8:]), nil
}

// RowsChunk is one replicated durable row batch: rows [StartRow,
// StartRow+n) of one relation, with the payload in the segstore WAL record
// encoding (opaque to this package). StartRow makes application idempotent —
// a replica already holding more rows skips the overlap.
type RowsChunk struct {
	Dataset  string
	Relation string
	StartRow int64
	NCols    int
	Payload  []byte
}

// EncodeRowsChunk frames rc as a TypeRows payload:
// u32 dataset len | dataset | u32 relation len | relation | u64 start row |
// u32 column count | payload.
func EncodeRowsChunk(rc RowsChunk) []byte {
	buf := make([]byte, 0, 4+len(rc.Dataset)+4+len(rc.Relation)+12+len(rc.Payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rc.Dataset)))
	buf = append(buf, rc.Dataset...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rc.Relation)))
	buf = append(buf, rc.Relation...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rc.StartRow))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rc.NCols))
	return append(buf, rc.Payload...)
}

// DecodeRowsChunk parses a TypeRows payload. Like DecodeFrame it is total and
// validates every length against the remaining bytes before slicing.
func DecodeRowsChunk(b []byte) (RowsChunk, error) {
	var rc RowsChunk
	readStr := func(what string) (string, error) {
		if len(b) < 4 {
			return "", fmt.Errorf("repl: rows chunk %s truncated", what)
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > maxNameLen || n > len(b) {
			return "", fmt.Errorf("repl: rows chunk %s length %d implausible", what, n)
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	var err error
	if rc.Dataset, err = readStr("dataset"); err != nil {
		return rc, err
	}
	if rc.Relation, err = readStr("relation"); err != nil {
		return rc, err
	}
	if len(b) < 12 {
		return rc, errors.New("repl: rows chunk header truncated")
	}
	rc.StartRow = int64(binary.BigEndian.Uint64(b))
	rc.NCols = int(binary.BigEndian.Uint32(b[8:]))
	if rc.StartRow < 0 || rc.NCols < 0 || rc.NCols > maxNameLen {
		return rc, fmt.Errorf("repl: rows chunk with implausible start row %d / column count %d", rc.StartRow, rc.NCols)
	}
	rc.Payload = b[12:]
	return rc, nil
}

// EncodeHeartbeat frames the primary's current ledger position (TypeHeartbeat).
func EncodeHeartbeat(size int64, records uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.BigEndian.AppendUint64(buf, uint64(size))
	return binary.BigEndian.AppendUint64(buf, records)
}

// DecodeHeartbeat parses a TypeHeartbeat payload.
func DecodeHeartbeat(b []byte) (size int64, records uint64, err error) {
	if len(b) != 16 {
		return 0, 0, fmt.Errorf("repl: heartbeat payload is %d bytes, want 16", len(b))
	}
	size = int64(binary.BigEndian.Uint64(b))
	if size < 0 {
		return 0, 0, fmt.Errorf("repl: negative heartbeat size %d", size)
	}
	return size, binary.BigEndian.Uint64(b[8:]), nil
}
