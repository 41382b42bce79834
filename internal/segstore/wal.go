// Package segstore is the durable storage layer under storage.Table: one
// fsynced, checksummed, append-only write-ahead log per relation, replayed
// on open, with the replayed (and subsequently appended) row batches tracked
// as sealed immutable segments.
//
// The WAL is the only durable artifact. Its invariant — enforced by
// installing each WAL as its table's storage.AppendSink, so rows hit the
// log and fsync *before* they become visible in memory — is that the
// in-memory table is always a prefix-extension of the log; after a crash at
// any moment, replay recovers exactly the durable prefix and queries over it
// are bit-identical to a run that only ever saw those rows (replayed rows
// pass through the same storage.Table.Append path as live ones).
//
// Each WAL is one internal/wal durable log — the ε-ledger's substrate, with
// its framing, recovery rule, fault seam (the segstore.* sites) and poison
// state — whose header identity is the relation name and column count and
// whose record payloads are row batches (all integers little-endian); a
// payload that does not decode is corruption like a failed CRC:
//
//	payload: u32 row count | rows
//	row:     per column: kind byte (value.Kind) |
//	         Int, Float → 8 value bytes; String → u32 length | bytes; Null → nothing
package segstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"r2t/internal/storage"
	"r2t/internal/value"
)

// maxWALBatchRows bounds how many rows one record carries; Append splits
// larger batches across records (still one fsync for the whole batch).
const maxWALBatchRows = 8192

// AppendPayload appends the WAL record payload encoding of rows — u32 row
// count, then each row's values — to buf. The r2td replication path ships
// durable row batches to replicas in this exact encoding, the one their own
// WALs will persist.
func AppendPayload(buf []byte, rows []storage.Row) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			buf = append(buf, byte(v.K))
			switch v.K {
			case value.Int:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
			case value.Float:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			case value.String:
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
				buf = append(buf, v.S...)
			}
		}
	}
	return buf
}

// DecodePayload decodes one record payload into rows of ncols columns. It is
// total over arbitrary bytes — replicated payloads are decoded with it before
// anything is applied.
func DecodePayload(b []byte, ncols int) ([]storage.Row, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("segstore: record payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Every row spends at least one kind byte per column, so the bytes left
	// bound the row count before anything is allocated for it.
	if n < 0 || n > len(b)/max(ncols, 1) {
		return nil, fmt.Errorf("segstore: implausible row count %d for %d payload bytes", n, len(b))
	}
	rows := make([]storage.Row, 0, n)
	for r := 0; r < n; r++ {
		row := make(storage.Row, ncols)
		for c := 0; c < ncols; c++ {
			if len(b) < 1 {
				return nil, fmt.Errorf("segstore: row %d truncated", r)
			}
			k := value.Kind(b[0])
			b = b[1:]
			switch k {
			case value.Null:
				// zero V
			case value.Int:
				if len(b) < 8 {
					return nil, fmt.Errorf("segstore: row %d truncated", r)
				}
				row[c] = value.IntV(int64(binary.LittleEndian.Uint64(b)))
				b = b[8:]
			case value.Float:
				if len(b) < 8 {
					return nil, fmt.Errorf("segstore: row %d truncated", r)
				}
				row[c] = value.FloatV(math.Float64frombits(binary.LittleEndian.Uint64(b)))
				b = b[8:]
			case value.String:
				if len(b) < 4 {
					return nil, fmt.Errorf("segstore: row %d truncated", r)
				}
				sl := int(binary.LittleEndian.Uint32(b))
				b = b[4:]
				if sl < 0 || len(b) < sl {
					return nil, fmt.Errorf("segstore: row %d truncated", r)
				}
				row[c] = value.StringV(string(b[:sl]))
				b = b[sl:]
			default:
				return nil, fmt.Errorf("segstore: row %d has unknown value kind %d", r, k)
			}
		}
		rows = append(rows, row)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("segstore: %d trailing payload bytes", len(b))
	}
	return rows, nil
}
