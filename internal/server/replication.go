package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"r2t/internal/repl"
	"r2t/internal/segstore"
	"r2t/internal/storage"
	"r2t/internal/wal"
)

// Replication roles (Config.Role).
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	// RoleRouter fronts a sharded cluster: the node hosts no rows, owns the
	// authoritative ε-ledger for its sharded datasets, and answers queries by
	// scattering uncharged sub-queries to shard primaries (DESIGN.md §16).
	// A router is replication-standalone — it neither streams to replicas nor
	// pulls from a primary.
	RoleRouter = "router"
)

// errFenced is returned to analysts by a primary that has observed a newer
// fencing epoch: some replica was promoted, so this node must never admit
// another charge (split-brain prevention, DESIGN.md §14).
var errFenced = errors.New("r2td: this node is fenced: a newer primary epoch exists; charges are refused")

// errNotPrimary redirects charging requests away from replicas.
var errNotPrimary = errors.New("r2td: this node is a replica: charges must go to the primary")

// replCatchupChunk bounds one ledger catch-up chunk; a chunk closes on the
// first record that reaches the bound, so every chunk is whole records.
const replCatchupChunk = 256 << 10

// replRowsBatch bounds one replicated row frame, matching the segstore's own
// WAL batch split.
const replRowsBatch = 8192

// replState is the server's replication identity and machinery. Every server
// has one; a standalone primary (no ReplListen) simply never installs
// mirrors, so the whole subsystem costs nothing.
type replState struct {
	node        string
	primaryAddr string // replica: where the primary's repl listener is
	minSync     int
	ackTimeout  time.Duration

	epoch   atomic.Uint64 // highest fencing epoch this node has seen
	replica atomic.Bool   // true while serving as replica
	fenced  atomic.Bool   // primary that observed a newer epoch

	mu       sync.Mutex
	hub      *repl.Hub
	hubLn    net.Listener
	client   *repl.Client
	hbStop   chan struct{}
	lastGood string // last primary address a handshake actually succeeded against
}

// noteAttach remembers the primary address behind the latest accepted
// handshake, so redirects keep a target even if configuration goes stale.
func (st *replState) noteAttach(addr string) {
	if addr == "" {
		return
	}
	st.mu.Lock()
	st.lastGood = addr
	st.mu.Unlock()
}

// redirectTarget is the address a replica's 409 redirect should name: the
// configured primary, else the last address a handshake succeeded against.
// Replicas are always configured with a primary address, so the fallback only
// matters when a later re-point or promotion cleared the configured one — the
// invariant the query and append paths rely on is that a replica's 409 always
// carries an X-R2T-Primary header.
func (st *replState) redirectTarget() string {
	if st.primaryAddr != "" {
		return st.primaryAddr
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastGood
}

// answerRecord is the TypeAnswer payload: one released DP answer for the
// replica's free-replay cache.
type answerRecord struct {
	Key      string  `json:"key"`
	Estimate float64 `json:"estimate"`
	Epsilon  float64 `json:"epsilon"`
	Query    string  `json:"query"`
	// Mechanism rides along so a replica's replay body equals its primary's.
	Mechanism  string `json:"mechanism,omitempty"`
	AtUnixNano int64  `json:"at"`
}

// isReplica reports whether this node currently serves as a replica.
func (st *replState) isReplica() bool { return st.replica.Load() }

// currentHub returns the hub if this node is streaming to replicas.
func (st *replState) currentHub() *repl.Hub {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hub
}

// noteEpoch ratchets the node's observed fencing epoch.
func (st *replState) noteEpoch(e uint64) {
	for {
		cur := st.epoch.Load()
		if e <= cur || st.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// initReplication wires the server's role. Primary: optionally listen for
// replicas, claim the next fencing epoch, install the ledger/store mirrors.
// Replica: start the pull client. Called from New before any request can be
// served.
func (s *Server) initReplication(cfg Config) error {
	st := &replState{
		node:        defaultNodeName(cfg.NodeName, cfg.LedgerPath),
		primaryAddr: cfg.PrimaryAddr,
		minSync:     cfg.SyncReplicas,
		ackTimeout:  cfg.ReplAckTimeout,
	}
	if st.ackTimeout <= 0 {
		st.ackTimeout = 5 * time.Second
	}
	st.epoch.Store(s.ledger.ReplayedEpoch())
	s.repl = st

	switch cfg.Role {
	case RoleRouter:
		// Routers are replication-standalone: their ledger is the shard
		// group's charge authority, and shards run their own primary/replica
		// clusters underneath.
		if cfg.PrimaryAddr != "" {
			return fmt.Errorf("r2td: -primary-addr is only meaningful with -role=replica")
		}
		if cfg.ReplListen != "" {
			return fmt.Errorf("r2td: a router does not serve replicas; drop -repl-listen")
		}
		return nil
	case "", RolePrimary:
		if cfg.PrimaryAddr != "" {
			return fmt.Errorf("r2td: -primary-addr is only meaningful with -role=replica")
		}
		if cfg.ReplListen == "" {
			return nil // standalone: no replication machinery at all
		}
		ln, err := net.Listen("tcp", cfg.ReplListen)
		if err != nil {
			return fmt.Errorf("r2td: replication listener: %w", err)
		}
		if err := s.becomePrimary(ln); err != nil {
			ln.Close()
			return err
		}
		return nil
	case RoleReplica:
		if cfg.PrimaryAddr == "" {
			return fmt.Errorf("r2td: -role=replica requires -primary-addr")
		}
		st.replica.Store(true)
		// The replica may carry ReplListen purely as promotion config: the
		// listener is only bound when /v1/promote turns this node into a
		// primary.
		s.replListen = cfg.ReplListen
		st.mu.Lock()
		st.client = repl.NewClient(repl.ClientConfig{
			PrimaryAddr: cfg.PrimaryAddr,
			Node:        st.node,
			Applier:     &replicaApplier{s: s},
			Logf:        func(format string, args ...any) { fmt.Fprintf(os.Stderr, "r2td: "+format+"\n", args...) },
			OnAttach:    st.noteAttach,
		})
		st.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("r2td: unknown role %q (want %q, %q, or %q)", cfg.Role, RolePrimary, RoleReplica, RoleRouter)
	}
}

// defaultNodeName resolves the node's identity: the configured name, else the
// hostname, else a deterministic fallback derived from the ledger path. The
// empty string is never acceptable — node names key epoch records, handshake
// peers, and metrics labels, and os.Hostname can fail (or return "") on
// minimal containers, which used to leave NodeName silently blank.
func defaultNodeName(configured, ledgerPath string) string {
	if configured != "" {
		return configured
	}
	if host, err := os.Hostname(); err == nil && host != "" {
		return host
	}
	return fmt.Sprintf("node-%08x", crc32.ChecksumIEEE([]byte(ledgerPath)))
}

// becomePrimary claims the next fencing epoch in the ledger, installs the
// replication mirrors, and starts streaming to replicas on ln. The epoch
// record is durable before any charge can carry the new epoch; the listener
// is bound before the record is written so a failed bind changes nothing.
func (s *Server) becomePrimary(ln net.Listener) error {
	st := s.repl
	next := st.epoch.Load() + 1
	if err := s.ledger.AppendEpoch(next, st.node); err != nil {
		return fmt.Errorf("r2td: claiming epoch %d: %w", next, err)
	}
	st.noteEpoch(next)

	hub := repl.NewHub(repl.HubConfig{
		Node:   st.node,
		Source: (*replSource)(s),
		Logf:   func(format string, args ...any) { fmt.Fprintf(os.Stderr, "r2td: "+format+"\n", args...) },
		// Every primary doubles as a shard: a router may scatter uncharged
		// sub-queries over the same listener replicas attach to. Nodes that
		// are never part of a sharded cluster simply never receive one.
		SubQuery: s.serveShardSubQuery,
	})
	st.mu.Lock()
	st.hub = hub
	st.hubLn = ln
	st.hbStop = make(chan struct{})
	hbStop := st.hbStop
	st.mu.Unlock()

	s.ledger.SetMirror(s.mirrorLedger)
	for _, name := range s.reg.Names() {
		ds := s.reg.Get(name)
		if ds.Store != nil {
			ds.Store.SetMirror(s.rowsMirror(ds))
		}
	}
	go hub.Serve(ln)
	go s.heartbeatLoop(hub, hbStop)
	return nil
}

// heartbeatLoop advertises the primary's ledger position every few seconds so
// replicas can report lag even when no charges flow.
func (s *Server) heartbeatLoop(hub *repl.Hub, stop chan struct{}) {
	t := time.NewTicker(3 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			size, records, _ := s.ledger.Position()
			hub.Publish(repl.Frame{
				Type:    repl.TypeHeartbeat,
				Epoch:   s.repl.epoch.Load(),
				Payload: repl.EncodeHeartbeat(size, records),
			})
		}
	}
}

// closeReplication tears down whichever side is running.
func (s *Server) closeReplication() {
	st := s.repl
	if st == nil {
		return
	}
	st.mu.Lock()
	hub, ln, client, hbStop := st.hub, st.hubLn, st.client, st.hbStop
	st.hub, st.hubLn, st.client, st.hbStop = nil, nil, nil, nil
	st.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
	}
	if ln != nil {
		ln.Close()
	}
	if hub != nil {
		hub.Close()
	}
	if client != nil {
		client.Close()
	}
}

// ReplAddr returns the primary's replication listener address ("" when not
// listening) — tests use it to point replicas at ephemeral listeners.
func (s *Server) ReplAddr() string {
	st := s.repl
	if st == nil {
		return ""
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.hubLn == nil {
		return ""
	}
	return st.hubLn.Addr().String()
}

// mirrorLedger is the LedgerMirror: every durable ledger append becomes a
// TypeLedger frame. Synchronous appends (charges) block for minSync replica
// acknowledgements; everything else (probes, epoch records) is fire-and-
// forget so byte offsets stay aligned without serializing on the network.
func (s *Server) mirrorLedger(frames []byte, size int64, records uint64, sync bool) error {
	st := s.repl
	hub := st.currentHub()
	if hub == nil {
		return nil
	}
	f := repl.Frame{
		Type:    repl.TypeLedger,
		Epoch:   st.epoch.Load(),
		Payload: repl.EncodeLedgerChunk(size, records, frames),
	}
	if !sync {
		hub.Publish(f)
		return nil
	}
	return hub.Commit(f, size, st.minSync, st.ackTimeout)
}

// rowsMirror builds the dataset's RowsMirror: durable row batches become
// TypeRows frames, split like the WAL itself splits records. Rows are lazily
// replicated — a dropped frame is healed by the next handshake's row
// catch-up, so publishing is fire-and-forget.
func (s *Server) rowsMirror(ds *Dataset) segstore.RowsMirror {
	return func(relation string, startRow int, rows []storage.Row) {
		hub := s.repl.currentHub()
		if hub == nil || len(rows) == 0 {
			return
		}
		epoch := s.repl.epoch.Load()
		ncols := len(rows[0])
		for start := 0; start < len(rows); start += replRowsBatch {
			end := min(start+replRowsBatch, len(rows))
			hub.Publish(repl.Frame{
				Type:  repl.TypeRows,
				Epoch: epoch,
				Payload: repl.EncodeRowsChunk(repl.RowsChunk{
					Dataset:  ds.Name,
					Relation: relation,
					StartRow: int64(startRow + start),
					NCols:    ncols,
					Payload:  segstore.AppendPayload(nil, rows[start:end]),
				}),
			})
		}
	}
}

// publishAnswer streams a freshly released answer to replicas so their
// free-replay caches can serve it without redirecting. Best-effort: a replica
// that misses it just 409s the next ask.
func (s *Server) publishAnswer(key string, ans cachedAnswer) {
	hub := s.repl.currentHub()
	if hub == nil {
		return
	}
	buf, err := json.Marshal(answerRecord{
		Key:        key,
		Estimate:   ans.Estimate,
		Epsilon:    ans.Epsilon,
		Query:      ans.Query,
		Mechanism:  ans.Mechanism,
		AtUnixNano: ans.At.UnixNano(),
	})
	if err != nil {
		return
	}
	hub.Publish(repl.Frame{Type: repl.TypeAnswer, Epoch: s.repl.epoch.Load(), Payload: buf})
}

// replSource is the repl.Source the primary hands its hub — a separate type
// so Handshake isn't part of Server's public API surface.
type replSource Server

// Handshake validates a replica against the fencing and prefix invariants
// and builds its catch-up stream.
//
// The prefix check is the structural split-brain defense: a replica's ledger
// must be a bitwise prefix of the primary's. A replica that was ever promoted
// (or fed by a different primary) has an epoch record the primary lacks, so
// its CRC diverges and it is refused — no timing assumptions anywhere.
func (rs *replSource) Handshake(h repl.Hello) (repl.Welcome, []repl.Frame, error) {
	s := (*Server)(rs)
	st := s.repl
	w := repl.Welcome{Node: st.node, Epoch: st.epoch.Load()}
	if h.Epoch > w.Epoch {
		// The replica has seen a newer reign than ours: we are the stale
		// primary after a promotion. Fence permanently — admitting even one
		// more charge could fork the ε accounting.
		st.fenced.Store(true)
		return w, nil, fmt.Errorf("fenced: replica %q carries epoch %d, ours is %d", h.Node, h.Epoch, w.Epoch)
	}
	if st.fenced.Load() {
		return w, nil, errors.New("this primary is fenced; connect to the promoted node")
	}

	size, records, _ := s.ledger.Position()
	w.LedgerSize, w.LedgerRecords = size, records
	if h.LedgerSize > size {
		return w, nil, fmt.Errorf("replica ledger (%d bytes) is longer than the primary's (%d)", h.LedgerSize, size)
	}

	// Read the frozen range [0, size) once: the prefix for CRC verification,
	// the remainder for catch-up. Appends racing past size are already
	// buffered in the replica's registered session.
	data, err := os.ReadFile(s.ledgerPath)
	if err == nil && int64(len(data)) < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return w, nil, fmt.Errorf("reading ledger for catch-up: %w", err)
	}
	data = data[:size]
	if wal.Checksum(data[:h.LedgerSize]) != h.LedgerCRC {
		return w, nil, fmt.Errorf("replica ledger is not a prefix of the primary's (diverged at or before byte %d)", h.LedgerSize)
	}

	// The suffix the replica lacks, split on record boundaries into chunks of
	// about replCatchupChunk bytes. A matching prefix ends on a record
	// boundary, so a suffix that does not decode has diverged too.
	var frames []repl.Frame
	remainder := data[h.LedgerSize:]
	n, err := wal.Each(remainder, nil)
	if err != nil {
		return w, nil, fmt.Errorf("ledger suffix after byte %d: %w", h.LedgerSize, err)
	}
	seq := records - uint64(n)
	off := h.LedgerSize
	for len(remainder) > 0 {
		cut := 0
		for cut < len(remainder) && cut < replCatchupChunk {
			_, m, err := wal.Decode(remainder[cut:], wal.MaxRecord)
			if err != nil {
				return w, nil, fmt.Errorf("ledger suffix at byte %d: %w", off+int64(cut), err)
			}
			cut += m
			seq++
		}
		off += int64(cut)
		frames = append(frames, repl.Frame{
			Type:    repl.TypeLedger,
			Epoch:   w.Epoch,
			Payload: repl.EncodeLedgerChunk(off, seq, remainder[:cut]),
		})
		remainder = remainder[cut:]
	}

	// Row catch-up, in schema (FK-topological) order per dataset so the
	// replica's own InsertChecked sees parents before children.
	for _, name := range s.reg.Names() {
		ds := s.reg.Get(name)
		if ds.Store == nil {
			continue
		}
		for _, rel := range ds.RelNames {
			t := ds.DB.Instance().Table(rel)
			if t == nil {
				continue
			}
			snap, _ := t.Snapshot()
			have := 0
			if perDS := h.Rows[ds.Name]; perDS != nil {
				have = perDS[rel]
			}
			if have > len(snap) {
				return w, nil, fmt.Errorf("replica holds %d rows of %s/%s, primary only %d: diverged", have, ds.Name, rel, len(snap))
			}
			ncols := len(t.Rel.Attrs)
			for start := have; start < len(snap); start += replRowsBatch {
				end := min(start+replRowsBatch, len(snap))
				frames = append(frames, repl.Frame{
					Type:  repl.TypeRows,
					Epoch: w.Epoch,
					Payload: repl.EncodeRowsChunk(repl.RowsChunk{
						Dataset:  ds.Name,
						Relation: rel,
						StartRow: int64(start),
						NCols:    ncols,
						Payload:  segstore.AppendPayload(nil, snap[start:end]),
					}),
				})
			}
		}
	}
	return w, frames, nil
}

// replicaApplier implements repl.Applier over the server's local state: the
// primary's stream lands in the same ledger and segstore WALs a primary would
// write, which is exactly what makes promotion trivial — the replica already
// IS a valid primary-shaped node, minus the fencing epoch.
type replicaApplier struct {
	s *Server
}

func (a *replicaApplier) Hello() (repl.Hello, error) {
	s := a.s
	size, _, crc := s.ledger.Position()
	h := repl.Hello{
		Node:       s.repl.node,
		Epoch:      s.repl.epoch.Load(),
		LedgerSize: size,
		LedgerCRC:  crc,
	}
	for _, name := range s.reg.Names() {
		ds := s.reg.Get(name)
		if ds.Store == nil {
			continue
		}
		if h.Rows == nil {
			h.Rows = make(map[string]map[string]int)
		}
		h.Rows[name] = ds.Store.RowCounts()
	}
	return h, nil
}

// ApplyLedger appends the fresh suffix of a replicated chunk to the local
// ledger and accounts its charges. Records are decoded BEFORE the raw append:
// an invalid record must fail the chunk without the bytes landing, otherwise
// the reconnect would skip them by offset and their charges would never be
// accounted.
func (a *replicaApplier) ApplyLedger(end int64, seq uint64, data []byte) (int64, uint64, error) {
	s := a.s
	size, records, _ := s.ledger.Position()
	if end <= size {
		return size, records, nil // replayed overlap from a reconnect
	}
	start := end - int64(len(data))
	if start > size {
		return size, records, fmt.Errorf("ledger gap: chunk starts at %d, local ledger at %d", start, size)
	}
	fresh := data[size-start:]
	var entries []LedgerEntry
	if _, err := wal.Each(fresh, func(p []byte) error {
		e, err := parseLedgerEntry(p)
		entries = append(entries, e)
		return err
	}); err != nil {
		return size, records, fmt.Errorf("replicated ledger: %w", err)
	}
	if err := s.ledger.AppendRaw(fresh); err != nil {
		return size, records, err
	}
	for _, e := range entries {
		switch e.Kind {
		case "":
			if ds := s.reg.Get(e.Dataset); ds != nil {
				ds.Budget.AddSpent(e.Epsilon)
			}
			// A charge for a dataset this node doesn't host is config drift;
			// the bytes are preserved (a later restart with the dataset
			// configured replays them), only the live counter lacks it.
		case KindEpoch:
			s.repl.noteEpoch(e.Epoch)
		}
	}
	nsize, nrecords, _ := s.ledger.Position()
	return nsize, nrecords, nil
}

// ApplyRows inserts the fresh suffix of a replicated row batch through the
// replica's own checked, durable path.
func (a *replicaApplier) ApplyRows(rc repl.RowsChunk) error {
	s := a.s
	ds := s.reg.Get(rc.Dataset)
	if ds == nil || ds.Store == nil {
		return fmt.Errorf("replicated rows for unhosted dataset %q", rc.Dataset)
	}
	t := ds.DB.Instance().Table(rc.Relation)
	if t == nil {
		return fmt.Errorf("replicated rows for unknown relation %s/%s", rc.Dataset, rc.Relation)
	}
	if rc.NCols != len(t.Rel.Attrs) {
		return fmt.Errorf("replicated rows for %s/%s carry %d columns, want %d", rc.Dataset, rc.Relation, rc.NCols, len(t.Rel.Attrs))
	}
	rows, err := segstore.DecodePayload(rc.Payload, rc.NCols)
	if err != nil {
		return err
	}
	have := int64(t.Len())
	if rc.StartRow+int64(len(rows)) <= have {
		return nil // replayed overlap
	}
	if rc.StartRow > have {
		return fmt.Errorf("row gap in %s/%s: chunk starts at %d, table has %d", rc.Dataset, rc.Relation, rc.StartRow, have)
	}
	fresh := rows[have-rc.StartRow:]
	return ds.Store.Insert(rc.Relation, fresh...)
}

// ApplyAnswer lands a replicated release in the free-replay cache.
func (a *replicaApplier) ApplyAnswer(epoch uint64, payload []byte) error {
	var rec answerRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return err
	}
	if rec.Key == "" {
		return errors.New("replicated answer without a key")
	}
	a.s.cache.Put(rec.Key, cachedAnswer{
		Estimate:  rec.Estimate,
		Epsilon:   rec.Epsilon,
		Query:     rec.Query,
		Mechanism: rec.Mechanism,
		At:        time.Unix(0, rec.AtUnixNano),
	})
	return nil
}

func (a *replicaApplier) NoteHeartbeat(epoch uint64, size int64, records uint64) {
	a.s.repl.noteEpoch(epoch)
}

// handlePromote serves POST /v1/promote: the operator-driven failover step.
// The replica stops pulling, claims the next fencing epoch durably in its own
// ledger, and starts serving charges (and, if configured with a replication
// listener, streaming to replicas of its own). The epoch record is what makes
// the old primary structurally unable to return: any replica that attaches to
// it afterwards carries the new epoch and fences it, and its own ledger can
// never again be a prefix of anyone's.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	st := s.repl
	if !st.isReplica() {
		writeError(w, http.StatusConflict, "already a primary")
		return
	}

	// Stop pulling first: after this, nothing can mutate the ledger behind
	// the promotion's back.
	st.mu.Lock()
	client := st.client
	st.client = nil
	st.mu.Unlock()
	if client != nil {
		client.Close()
	}

	// Bind the new reign's listener before writing anything: a failed bind
	// leaves the node a plain (demotable, re-pointable) replica.
	var ln net.Listener
	if s.replListen != "" {
		var err error
		ln, err = net.Listen("tcp", s.replListen)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("promotion aborted at listener: %v", err))
			return
		}
	}
	if err := s.becomePrimary(ln); err != nil {
		if ln != nil {
			ln.Close()
		}
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("promotion failed: %v", err))
		return
	}
	st.replica.Store(false)
	fmt.Fprintf(os.Stderr, "r2td: promoted to primary at epoch %d\n", st.epoch.Load())
	writeJSON(w, http.StatusOK, map[string]any{
		"role":  RolePrimary,
		"node":  st.node,
		"epoch": st.epoch.Load(),
	})
}

// replicaStatus returns the client's status (zero value when not a replica).
func (s *Server) replicaStatus() repl.Status {
	st := s.repl
	st.mu.Lock()
	client := st.client
	st.mu.Unlock()
	if client == nil {
		return repl.Status{}
	}
	return client.Status()
}
