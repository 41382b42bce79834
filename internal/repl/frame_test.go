package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeHello, Epoch: 0, Payload: nil},
		{Type: TypeLedger, Epoch: 1, Payload: []byte("{}\n")},
		{Type: TypeHeartbeat, Epoch: 1<<64 - 1, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: TypeAck, Epoch: 7, Payload: EncodeAck(123456, 42)},
	}
	for _, f := range frames {
		enc := EncodeFrame(f)
		got, n, err := DecodeFrame(enc, 0)
		if err != nil {
			t.Fatalf("DecodeFrame(%d): %v", f.Type, err)
		}
		if n != len(enc) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(enc))
		}
		if got.Type != f.Type || got.Epoch != f.Epoch || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, f)
		}
		// Stream path must agree with the in-memory path.
		rf, err := ReadFrame(bytes.NewReader(enc), 0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if rf.Type != f.Type || rf.Epoch != f.Epoch || !bytes.Equal(rf.Payload, f.Payload) {
			t.Fatalf("ReadFrame mismatch: %+v != %+v", rf, f)
		}
	}
}

func TestFrameCorruptionRejected(t *testing.T) {
	f := Frame{Type: TypeLedger, Epoch: 3, Payload: []byte(`{"ds":"x"}` + "\n")}
	enc := EncodeFrame(f)
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		got, _, err := DecodeFrame(bad, 0)
		if err == nil {
			// A flip in the length field can only produce a *valid* frame if
			// it still CRC-matches, which a single bit flip cannot.
			t.Fatalf("bit flip at %d accepted: %+v", i, got)
		}
	}
}

func TestFrameTooLargeRejectedBeforeAllocation(t *testing.T) {
	// A header claiming a huge payload must be rejected from the header alone.
	enc := EncodeFrame(Frame{Type: TypeLedger, Epoch: 1, Payload: []byte("x")})
	enc[0], enc[1], enc[2], enc[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeFrame(enc, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame: %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bytes.NewReader(enc), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame: %v, want ErrFrameTooLarge", err)
	}
	// With a caller-supplied tighter bound, a merely-large payload is refused.
	big := EncodeFrame(Frame{Type: TypeRows, Epoch: 1, Payload: make([]byte, 2048)})
	if _, _, err := DecodeFrame(big, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame small max: %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameShortInput(t *testing.T) {
	enc := EncodeFrame(Frame{Type: TypeAnswer, Epoch: 2, Payload: []byte("abcdef")})
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeFrame(enc[:n], 0); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", n)
		}
		if _, err := ReadFrame(bytes.NewReader(enc[:n]), 0); err == nil {
			t.Fatalf("truncated stream of %d bytes accepted", n)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestLedgerChunkCodec(t *testing.T) {
	data := []byte(`{"ds":"a","eps":0.5}` + "\n")
	p := EncodeLedgerChunk(777, 13, data)
	end, seq, got, err := DecodeLedgerChunk(p)
	if err != nil {
		t.Fatal(err)
	}
	if end != 777 || seq != 13 || !bytes.Equal(got, data) {
		t.Fatalf("got end=%d seq=%d data=%q", end, seq, got)
	}
	if _, _, _, err := DecodeLedgerChunk(p[:10]); err == nil {
		t.Fatal("truncated ledger chunk accepted")
	}
	// end offset smaller than the chunk itself is impossible.
	if _, _, _, err := DecodeLedgerChunk(EncodeLedgerChunk(3, 1, data)); err == nil {
		t.Fatal("implausible end offset accepted")
	}
}

func TestAckCodec(t *testing.T) {
	off, seq, err := DecodeAck(EncodeAck(99, 3))
	if err != nil || off != 99 || seq != 3 {
		t.Fatalf("got %d,%d,%v", off, seq, err)
	}
	if _, _, err := DecodeAck([]byte("short")); err == nil {
		t.Fatal("short ack accepted")
	}
}

func TestRowsChunkCodec(t *testing.T) {
	rc := RowsChunk{Dataset: "orders", Relation: "lineitem", StartRow: 4096, NCols: 7, Payload: []byte{1, 2, 3}}
	got, err := DecodeRowsChunk(EncodeRowsChunk(rc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != rc.Dataset || got.Relation != rc.Relation || got.StartRow != rc.StartRow ||
		got.NCols != rc.NCols || !bytes.Equal(got.Payload, rc.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	enc := EncodeRowsChunk(rc)
	for n := 0; n < len(enc)-len(rc.Payload); n++ {
		if _, err := DecodeRowsChunk(enc[:n]); err == nil {
			t.Fatalf("truncated rows chunk of %d bytes accepted", n)
		}
	}
}

func TestHeartbeatCodec(t *testing.T) {
	size, records, err := DecodeHeartbeat(EncodeHeartbeat(1234, 56))
	if err != nil || size != 1234 || records != 56 {
		t.Fatalf("got %d,%d,%v", size, records, err)
	}
	if _, _, err := DecodeHeartbeat(make([]byte, 15)); err == nil {
		t.Fatal("short heartbeat accepted")
	}
}
