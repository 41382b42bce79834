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
// File format (all integers little-endian):
//
//	header:  "r2twal01" | u32 name length | name bytes | u32 column count
//	record:  u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload: u32 row count | rows
//	row:     per column: kind byte (value.Kind) |
//	         Int, Float → 8 value bytes; String → u32 length | bytes; Null → nothing
//
// Records are framed before they are checksummed, so replay can detect a
// torn tail (partial frame or payload, or a CRC mismatch) and repair it by
// truncating back to the last intact record — the ledger's torn-tail
// discipline from PR 3. Under the crash model (appends are sequential,
// the kernel may drop or tear only the un-fsynced tail) everything before
// the tear is intact, so stopping at the first bad record recovers the
// longest durable prefix.
package segstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"r2t/internal/storage"
	"r2t/internal/value"
)

// walMagic begins every WAL file and pins the format version.
const walMagic = "r2twal01"

// maxWALRecord bounds a single record's payload. Replay treats anything
// larger as corruption (a torn length field would otherwise make it try to
// allocate and read gigabytes); writers split oversized batches to fit.
const maxWALRecord = 64 << 20

// maxWALBatchRows bounds how many rows one record carries; Append splits
// larger batches across records (still one fsync for the whole batch).
const maxWALBatchRows = 8192

// appendHeader appends the WAL file header for relation name with ncols
// columns.
func appendHeader(buf []byte, name string, ncols int) []byte {
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ncols))
	return buf
}

// appendPayload appends the record payload encoding of rows: u32 row count,
// then each row's values.
func appendPayload(buf []byte, rows []storage.Row) []byte {
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

// EncodePayload encodes rows in the WAL record payload format. The r2td
// replication path uses it to ship durable row batches to replicas in the
// exact encoding their own WALs will persist.
func EncodePayload(rows []storage.Row) []byte {
	return appendPayload(nil, rows)
}

// DecodePayload decodes one record payload into rows of ncols columns. It is
// total over arbitrary bytes — replicated payloads are decoded with it before
// anything is applied.
func DecodePayload(b []byte, ncols int) ([]storage.Row, error) {
	return decodePayload(b, ncols)
}

// appendRecord frames rows as one checksummed WAL record.
func appendRecord(buf []byte, rows []storage.Row) []byte {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	payloadAt := len(buf)
	buf = appendPayload(buf, rows)
	payload := buf[payloadAt:]
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[lenAt+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodePayload decodes one record payload into rows of ncols columns.
func decodePayload(b []byte, ncols int) ([]storage.Row, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("segstore: record payload truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > maxWALRecord {
		return nil, fmt.Errorf("segstore: implausible row count %d", n)
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
