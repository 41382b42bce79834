package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"r2t/internal/fault"
)

// ErrNotEnoughReplicas aborts a synchronous Commit: fewer replicas than the
// configured minimum acknowledged the ledger record in time. The server maps
// it to 503 — the charge was written to the primary's ledger but NOT admitted
// (the budget hook fails), so replay can only ever overcount, never let an
// admitted charge exist on one node alone.
var ErrNotEnoughReplicas = errors.New("repl: not enough replicas acknowledged the charge")

// errSlowReplica detaches a session whose outbound queue overflowed.
var errSlowReplica = errors.New("repl: replica too slow, send queue overflowed")

// Source is the primary-side state the Hub replicates. Handshake validates a
// replica's Hello against local state (fencing epochs, ledger prefix
// identity, row-count plausibility) and returns the Welcome plus the ordered
// catch-up frames that bring the replica from its advertised position to the
// Welcome's target. Returning an error refuses the replica with the error
// text. Handshake runs concurrently with live publishes; overlap between the
// catch-up snapshot and concurrently published frames is safe because every
// chunk carries its absolute position and replicas apply idempotently.
type Source interface {
	Handshake(h Hello) (Welcome, []Frame, error)
}

// HubConfig assembles a Hub.
type HubConfig struct {
	Node       string
	Source     Source
	MaxPayload int           // frame payload bound (0 = DefaultMaxPayload)
	SendQueue  int           // per-session outbound buffer (0 = 4096 frames)
	WriteWait  time.Duration // per-frame write deadline (0 = 10s)
	Logf       func(format string, args ...any)

	// SubQuery, when non-nil, serves router sub-queries: a connection whose
	// first frame is TypeSubQuery enters a request/response loop where each
	// sub-query payload is answered with one TypePartial frame carrying the
	// callback's result. The callback returns the reply payload; a non-nil
	// error closes the connection (application-level failures travel inside
	// the reply payload instead, so the connection stays reusable).
	SubQuery func(payload []byte) ([]byte, error)
}

// Hub is the primary side of the protocol: it accepts replica connections,
// runs the handshake through the Source, streams published frames to every
// attached session, and lets the ledger's charge path block on
// acknowledgements (Commit). It owns no replication policy beyond transport —
// what to stream and whether to refuse a replica is the Source's call.
type Hub struct {
	cfg HubConfig

	mu       sync.Mutex
	sessions map[*session]struct{}
	subConns map[net.Conn]struct{} // router sub-query connections (lazily allocated)
	closed   bool

	disconnects atomic.Uint64
}

// PeerStatus is one attached replica's replication position, for /metrics.
type PeerStatus struct {
	Node        string
	AckedOffset int64  // highest ledger offset the replica acknowledged
	AckedSeq    uint64 // ledger records acknowledged
	SentSeq     uint64 // ledger records streamed to it
}

// session is one attached replica connection.
type session struct {
	hub  *Hub
	conn net.Conn
	node string

	ch   chan Frame
	done chan struct{}
	once sync.Once

	ackedOff atomic.Int64
	ackedSeq atomic.Uint64
	sentSeq  atomic.Uint64
	ackCh    chan struct{} // capacity 1; poked on every ack
}

// NewHub builds a hub; call Serve with a listener to accept replicas.
func NewHub(cfg HubConfig) *Hub {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = 4096
	}
	if cfg.WriteWait <= 0 {
		cfg.WriteWait = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Hub{cfg: cfg, sessions: make(map[*session]struct{})}
}

// Serve accepts replica connections on ln until the listener is closed.
func (h *Hub) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go h.handle(conn)
	}
}

// Close detaches every session. The caller closes its own listener first so
// Serve returns.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	sessions := make([]*session, 0, len(h.sessions))
	for s := range h.sessions {
		sessions = append(sessions, s)
	}
	subs := make([]net.Conn, 0, len(h.subConns))
	for c := range h.subConns {
		subs = append(subs, c)
	}
	h.mu.Unlock()
	for _, s := range sessions {
		s.detach(errors.New("repl: hub closed"), false)
	}
	// Sub-query connections must die with the hub: a closed shard that kept
	// answering over pooled router connections would be indistinguishable
	// from a live one, defeating kill-based failover tests and drains.
	for _, c := range subs {
		c.Close()
	}
}

// snapshot returns the attached sessions without holding the lock afterwards.
func (h *Hub) snapshot() []*session {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*session, 0, len(h.sessions))
	for s := range h.sessions {
		out = append(out, s)
	}
	return out
}

// Attached returns the number of attached replica sessions.
func (h *Hub) Attached() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// Disconnects counts sessions lost since startup (errors, timeouts, overflow
// — not hub shutdown or refused handshakes).
func (h *Hub) Disconnects() uint64 { return h.disconnects.Load() }

// Peers snapshots every attached session's replication position.
func (h *Hub) Peers() []PeerStatus {
	sessions := h.snapshot()
	out := make([]PeerStatus, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, PeerStatus{
			Node:        s.node,
			AckedOffset: s.ackedOff.Load(),
			AckedSeq:    s.ackedSeq.Load(),
			SentSeq:     s.sentSeq.Load(),
		})
	}
	return out
}

// Publish enqueues f to every attached session, fire-and-forget: ledger
// probes and epoch records, row batches, answers, heartbeats. A session whose
// queue is full is detached (its next handshake catches it up from disk)
// rather than ever blocking the caller.
func (h *Hub) Publish(f Frame) {
	for _, s := range h.snapshot() {
		s.enqueue(f)
	}
}

// Commit publishes a ledger frame and blocks until every session attached at
// entry acknowledges ledger offset end, detaching any that cannot within
// timeout. It then requires at least minSync surviving acknowledgements —
// otherwise ErrNotEnoughReplicas, which the caller (the budget commit hook)
// turns into an aborted, unadmitted charge. minSync <= 0 makes the commit
// best-effort (solo/availability mode).
func (h *Hub) Commit(f Frame, end int64, minSync int, timeout time.Duration) error {
	sessions := h.snapshot()
	for _, s := range sessions {
		s.enqueue(f)
	}
	deadline := time.Now().Add(timeout)
	acked := 0
	for _, s := range sessions {
		if s.waitAck(end, deadline) {
			acked++
		} else {
			s.detach(fmt.Errorf("repl: no ack for ledger offset %d within %v", end, timeout), true)
		}
	}
	if acked < minSync {
		return fmt.Errorf("%w: %d of %d required (offset %d)", ErrNotEnoughReplicas, acked, minSync, end)
	}
	return nil
}

// handle runs one replica connection: handshake, catch-up, then the live
// stream until error or shutdown.
func (h *Hub) handle(conn net.Conn) {
	logf := h.cfg.Logf
	if err := faultHandshake(); err != nil {
		logf("repl: handshake fault: %v", err)
		conn.Close()
		return
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	f, err := ReadFrame(conn, h.cfg.MaxPayload)
	if err == nil && f.Type == TypeSubQuery && h.cfg.SubQuery != nil {
		h.serveSubQueries(conn, f)
		return
	}
	if err != nil || f.Type != TypeHello {
		logf("repl: bad hello from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	var hello Hello
	if err := json.Unmarshal(f.Payload, &hello); err != nil {
		logf("repl: undecodable hello from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}

	// Register before the Source snapshots its state for catch-up: frames
	// published from here on buffer in the session queue, so nothing falls in
	// the gap between the snapshot and the live stream. The overlap (a
	// published frame that is also inside the catch-up) is deduplicated on the
	// replica by absolute position.
	s := &session{
		hub:   h,
		conn:  conn,
		node:  hello.Node,
		ch:    make(chan Frame, h.cfg.SendQueue),
		done:  make(chan struct{}),
		ackCh: make(chan struct{}, 1),
	}
	s.ackedOff.Store(hello.LedgerSize)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.sessions[s] = struct{}{}
	h.mu.Unlock()

	welcome, catchup, herr := h.cfg.Source.Handshake(hello)
	if herr != nil && welcome.Refuse == "" {
		welcome.Refuse = herr.Error()
	}
	wbuf, _ := json.Marshal(welcome)
	conn.SetWriteDeadline(time.Now().Add(h.cfg.WriteWait))
	if err := WriteFrame(conn, Frame{Type: TypeWelcome, Epoch: welcome.Epoch, Payload: wbuf}); err != nil {
		s.detach(err, true)
		return
	}
	if welcome.Refuse != "" {
		logf("repl: refused replica %q: %s", hello.Node, welcome.Refuse)
		s.detach(nil, false)
		return
	}
	for _, cf := range catchup {
		conn.SetWriteDeadline(time.Now().Add(h.cfg.WriteWait))
		if err := s.write(cf); err != nil {
			s.detach(err, true)
			return
		}
	}
	conn.SetReadDeadline(time.Time{}) // acks arrive only when ledger traffic flows

	logf("repl: replica %q attached (ledger %d -> %d)", hello.Node, hello.LedgerSize, welcome.LedgerSize)
	go s.readAcks()
	s.writeLoop()
}

// enqueue hands f to the session's writer, detaching on overflow.
func (s *session) enqueue(f Frame) {
	select {
	case s.ch <- f:
	default:
		s.detach(errSlowReplica, true)
	}
}

// write sends one frame, tracking the streamed ledger record count.
func (s *session) write(f Frame) error {
	if f.Type == TypeLedger {
		if _, seq, _, err := DecodeLedgerChunk(f.Payload); err == nil && seq > s.sentSeq.Load() {
			s.sentSeq.Store(seq)
		}
	}
	return WriteFrame(s.conn, f)
}

// writeLoop drains the outbound queue until detach.
func (s *session) writeLoop() {
	for {
		select {
		case f := <-s.ch:
			s.conn.SetWriteDeadline(time.Now().Add(s.hub.cfg.WriteWait))
			if err := s.write(f); err != nil {
				s.detach(err, true)
				return
			}
		case <-s.done:
			return
		}
	}
}

// readAcks consumes the replica's acknowledgement stream.
func (s *session) readAcks() {
	for {
		f, err := ReadFrame(s.conn, 1024)
		if err != nil {
			s.detach(err, true)
			return
		}
		if f.Type != TypeAck {
			s.detach(fmt.Errorf("repl: unexpected %d frame from replica", f.Type), true)
			return
		}
		off, seq, err := DecodeAck(f.Payload)
		if err != nil {
			s.detach(err, true)
			return
		}
		if off > s.ackedOff.Load() {
			s.ackedOff.Store(off)
		}
		if seq > s.ackedSeq.Load() {
			s.ackedSeq.Store(seq)
		}
		select {
		case s.ackCh <- struct{}{}:
		default:
		}
	}
}

// waitAck blocks until the replica acknowledges ledger offset off, the
// session dies, or the deadline passes.
func (s *session) waitAck(off int64, deadline time.Time) bool {
	for {
		if s.ackedOff.Load() >= off {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-s.ackCh:
			t.Stop()
		case <-s.done:
			t.Stop()
			return s.ackedOff.Load() >= off
		case <-t.C:
			return s.ackedOff.Load() >= off
		}
	}
}

// detach tears the session down exactly once: close the connection (which
// unblocks both loops), unregister, and optionally count the disconnect.
func (s *session) detach(cause error, count bool) {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
		s.hub.mu.Lock()
		delete(s.hub.sessions, s)
		s.hub.mu.Unlock()
		if count {
			s.hub.disconnects.Add(1)
			if cause != nil {
				s.hub.cfg.Logf("repl: replica %q detached: %v", s.node, cause)
			}
		}
	})
}

// serveSubQueries runs the router-facing request/response loop on one
// connection: the already-read first sub-query, then any number of further
// ones. Each is answered with a TypePartial frame echoing the request epoch.
// Evaluation time is bounded by the callback (the server wraps it in its own
// request timeout); between requests the connection idles without a read
// deadline, so routers can pool connections.
func (h *Hub) serveSubQueries(conn net.Conn, first Frame) {
	defer conn.Close()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if h.subConns == nil {
		h.subConns = make(map[net.Conn]struct{})
	}
	h.subConns[conn] = struct{}{}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.subConns, conn)
		h.mu.Unlock()
	}()
	f := first
	for {
		resp, err := h.cfg.SubQuery(f.Payload)
		if err != nil {
			h.cfg.Logf("repl: sub-query from %s failed: %v", conn.RemoteAddr(), err)
			return
		}
		conn.SetWriteDeadline(time.Now().Add(h.cfg.WriteWait))
		if err := WriteFrame(conn, Frame{Type: TypePartial, Epoch: f.Epoch, Payload: resp}); err != nil {
			return
		}
		conn.SetDeadline(time.Time{}) // idle until the router's next sub-query
		var rerr error
		f, rerr = ReadFrame(conn, h.cfg.MaxPayload)
		if rerr != nil || f.Type != TypeSubQuery {
			return
		}
	}
}

// faultHandshake fires the repl.handshake site (shared with the client side).
func faultHandshake() error {
	return fault.Check(SiteHandshake)
}
