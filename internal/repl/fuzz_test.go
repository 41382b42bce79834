package repl

import (
	"bytes"
	"testing"

	"r2t/internal/wal"
)

// FuzzReplFrame is the frame-decoder half of the ISSUE-8 fuzz contract:
// arbitrary bytes must never panic, never force an allocation beyond the
// declared payload bound, and never yield a frame whose CRC does not match
// (DecodeFrame returning nil error IS the "gets applied" gate — a CRC-failing
// frame must never reach it). Accepted frames must re-encode to the exact
// bytes consumed, and the chunk-level decoders must be equally total on the
// accepted payloads.
func FuzzReplFrame(f *testing.F) {
	f.Add(EncodeFrame(Frame{Type: TypeHello, Epoch: 1, Payload: []byte(`{"node":"b"}`)}))
	f.Add(EncodeFrame(Frame{Type: TypeLedger, Epoch: 2, Payload: EncodeLedgerChunk(64, 3, []byte("{}\n"))}))
	f.Add(EncodeFrame(Frame{Type: TypeAck, Epoch: 2, Payload: EncodeAck(64, 3)}))
	f.Add(EncodeFrame(Frame{Type: TypeRows, Epoch: 1, Payload: EncodeRowsChunk(RowsChunk{Dataset: "d", Relation: "r", NCols: 2, Payload: []byte{9}})}))
	f.Add(EncodeFrame(Frame{Type: TypeHeartbeat, Epoch: 1, Payload: EncodeHeartbeat(10, 1)}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Add(wal.AppendRecord(nil, []byte{TypeAck, 0, 0}))                                        // record too short for type + epoch
	f.Add(append(EncodeFrame(Frame{Type: TypeAnswer, Epoch: 3, Payload: []byte(`{}`)}), 0xEE)) // trailing byte

	const maxPayload = 1 << 20 // tight bound so over-allocation would be loud
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data, maxPayload)
		if err != nil {
			return
		}
		if n < headerSize || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if len(fr.Payload) > maxPayload {
			t.Fatalf("accepted payload of %d bytes above bound %d", len(fr.Payload), maxPayload)
		}
		// An accepted frame is exactly the bytes consumed: CRC held, so
		// re-encoding must be the identity.
		if !bytes.Equal(EncodeFrame(fr), data[:n]) {
			t.Fatalf("accepted frame does not re-encode to its input")
		}
		// The stream reader must agree byte-for-byte with the slice decoder.
		sf, serr := ReadFrame(bytes.NewReader(data), maxPayload)
		if serr != nil {
			t.Fatalf("DecodeFrame accepted but ReadFrame rejected: %v", serr)
		}
		if sf.Type != fr.Type || sf.Epoch != fr.Epoch || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame")
		}
		// Chunk decoders must be total over whatever payloads frames carry.
		switch fr.Type {
		case TypeLedger:
			DecodeLedgerChunk(fr.Payload)
		case TypeAck:
			DecodeAck(fr.Payload)
		case TypeRows:
			if rc, err := DecodeRowsChunk(fr.Payload); err == nil {
				if rc.NCols < 0 || rc.StartRow < 0 {
					t.Fatalf("rows chunk accepted with negative fields: %+v", rc)
				}
			}
		case TypeHeartbeat:
			DecodeHeartbeat(fr.Payload)
		}
	})
}
