package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"r2t/internal/segstore"
	"r2t/internal/shard"
	"r2t/internal/storage"
	"r2t/internal/value"
)

// appendRequest is the operator-facing write API. Rows arrive as strings in
// schema attribute order and are parsed with value.Parse, exactly like CSV
// fields, so a row that loads from a CSV file appends identically over HTTP.
type appendRequest struct {
	Dataset  string     `json:"dataset"`
	Relation string     `json:"relation"`
	Rows     [][]string `json:"rows"`
}

type appendResponse struct {
	Dataset  string `json:"dataset"`
	Relation string `json:"relation"`
	Appended int    `json:"appended"`
	// TotalRows is the relation's row count after the append — the analyst
	// query surface already exposes data through the DP mechanism only, and
	// this endpoint is operator-side (writes imply ownership of the data).
	TotalRows int `json:"total_rows"`
	// Deduped marks a response replayed from the X-R2T-Append-Id idempotency
	// window: the rows were already durably applied by an earlier request with
	// this id and nothing was written again.
	Deduped bool `json:"deduped,omitempty"`
}

// AppendIDHeader carries the client-chosen idempotency id for POST /v1/append.
// Retrying a timed-out append with the same id (and identical rows) is safe:
// if the original attempt landed, the retry replays its response instead of
// appending the rows a second time. The same id with different rows is a 409.
const AppendIDHeader = "X-R2T-Append-Id"

// handleAppend serves POST /v1/append: parse, integrity-check, WAL, apply.
// The append is durable (fsynced) before the response is written; a 200
// means a restart will replay the rows. Only datasets configured with a
// durable directory accept writes — everything else is 409, not 500, so a
// misdirected writer learns the dataset is read-only rather than retrying.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req appendRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.failAppend(w, "", start, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// Role gate: writes flow through the primary only. A replica applying
	// local appends would fork its tables from the primary's stream; it
	// redirects instead, exactly like the charge path. A fenced primary has
	// been replaced and must not grow datasets the new primary will never see.
	if s.repl.isReplica() {
		// Like the query path: the redirect target must always be populated
		// (configured primary, else the last successful handshake peer).
		w.Header().Set("X-R2T-Primary", s.repl.redirectTarget())
		s.failAppend(w, req.Dataset, start, http.StatusConflict, errNotPrimary)
		return
	}
	if s.repl.fenced.Load() {
		s.failAppend(w, req.Dataset, start, http.StatusServiceUnavailable, errFenced)
		return
	}
	ds := s.reg.Get(req.Dataset)
	if ds == nil {
		s.failAppend(w, req.Dataset, start, http.StatusNotFound, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	if ds.Sharded() {
		s.redirectShardAppend(w, ds, &req, start)
		return
	}
	if ds.Store == nil {
		s.failAppend(w, ds.Name, start, http.StatusConflict,
			fmt.Errorf("dataset %q is read-only (no durable directory configured)", ds.Name))
		return
	}
	if len(req.Rows) == 0 {
		s.failAppend(w, ds.Name, start, http.StatusBadRequest, errors.New("no rows to append"))
		return
	}

	// Idempotency (AppendIDHeader): resolve the id before touching the WAL.
	var finish func(appendResponse, bool)
	if id := r.Header.Get(AppendIDHeader); id != "" {
		stored, outcome, fin, err := s.dedup.claim(r.Context(), dedupKey(req.Dataset, req.Relation, id), hashAppendBody(req.Rows))
		if err != nil {
			// The client gave up while an earlier attempt with this id was
			// still being applied; that attempt's outcome stands either way.
			s.failAppend(w, ds.Name, start, http.StatusGatewayTimeout, err)
			return
		}
		switch outcome {
		case dedupReplay:
			s.metrics.appendDeduped()
			stored.Deduped = true
			s.logRequest(requestLogEntry{
				Dataset:   ds.Name,
				Status:    statusAppend,
				Code:      http.StatusOK,
				Cached:    true,
				ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			})
			writeJSON(w, http.StatusOK, stored)
			return
		case dedupConflict:
			s.failAppend(w, ds.Name, start, http.StatusConflict,
				fmt.Errorf("append id %q was already used for %s/%s with different rows", id, req.Dataset, req.Relation))
			return
		}
		finish = fin
	}
	var resp appendResponse
	applied := false
	if finish != nil {
		// Runs on every exit: a success is remembered for replay, any failure
		// releases the id so the caller's retry can lead again.
		defer func() { finish(resp, applied) }()
	}

	rows := make([]storage.Row, len(req.Rows))
	for i, fields := range req.Rows {
		row := make(storage.Row, len(fields))
		for c, f := range fields {
			row[c] = value.Parse(f)
		}
		rows[i] = row
	}
	if err := ds.Store.Insert(req.Relation, rows...); err != nil {
		code := http.StatusBadRequest // arity, unknown relation, PK/FK violation
		if errors.Is(err, segstore.ErrPoisoned) || errors.Is(err, segstore.ErrClosed) {
			// Fail-closed: durability is unknown, so no further write may be
			// admitted until the operator restarts (which replays the intact
			// prefix and repairs any torn tail).
			code = http.StatusServiceUnavailable
		}
		s.failAppend(w, ds.Name, start, code, err)
		return
	}
	snap, _ := ds.DB.Instance().Table(req.Relation).Snapshot()
	s.logRequest(requestLogEntry{
		Dataset:   ds.Name,
		Status:    statusAppend,
		Code:      http.StatusOK,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
	resp = appendResponse{
		Dataset:   ds.Name,
		Relation:  req.Relation,
		Appended:  len(rows),
		TotalRows: len(snap),
	}
	applied = true
	writeJSON(w, http.StatusOK, resp)
}

// redirectShardAppend rejects writes addressed to the router of a sharded
// dataset. The router holds no rows — every row lives on its owning shard's
// durable store — so the append must be re-issued there. For partitioned
// relations the router computes the owner from the routing column and, when
// all rows agree on a single shard, names it in X-R2T-Shard so the writer can
// redirect without knowing the hash. Broadcast relations have no single owner
// (the rows belong on every shard) and are a plain 400.
func (s *Server) redirectShardAppend(w http.ResponseWriter, ds *Dataset, req *appendRequest, start time.Time) {
	rt := ds.Routing.Route(req.Relation)
	known := false
	for _, name := range ds.DB.Schema().Names() {
		if name == req.Relation {
			known = true
			break
		}
	}
	if !known {
		s.failAppend(w, ds.Name, start, http.StatusBadRequest,
			fmt.Errorf("unknown relation %q in dataset %q", req.Relation, ds.Name))
		return
	}
	if rt.Kind == shard.Broadcast {
		s.failAppend(w, ds.Name, start, http.StatusBadRequest,
			fmt.Errorf("relation %q is broadcast: its rows belong on every shard, append them on each shard directly", req.Relation))
		return
	}
	// Partitioned relation: name the owning shard when it is unambiguous.
	owner := -1
	uniform := len(req.Rows) > 0
	for _, fields := range req.Rows {
		if rt.Col >= len(fields) {
			uniform = false
			break
		}
		o := shard.OwnerOf(value.Parse(fields[rt.Col]), len(ds.Shards))
		if owner == -1 {
			owner = o
		} else if o != owner {
			uniform = false
			break
		}
	}
	if uniform && owner >= 0 {
		w.Header().Set("X-R2T-Shard", ds.Shards[owner].Name)
	}
	s.failAppend(w, ds.Name, start, http.StatusConflict,
		fmt.Errorf("dataset %q is sharded: rows must be appended on their owning shard, not the router", ds.Name))
}

// failAppend mirrors fail for the write path. Append errors are
// operator-facing and data-independent (schema violations name key values the
// writer itself supplied), so unlike the query path they are returned verbatim.
func (s *Server) failAppend(w http.ResponseWriter, dataset string, start time.Time, code int, err error) {
	if dataset == "" {
		dataset = "_unknown"
	}
	status := statusInvalid
	switch code {
	case http.StatusNotFound:
		status = statusNotFound
	case http.StatusGatewayTimeout:
		status = statusTimeout
	case http.StatusConflict:
		status = statusReadOnly
	case http.StatusServiceUnavailable:
		status = statusUnavailable
		setRetryAfter(w, retryAfterOutage)
	}
	// Appends deliberately stay out of r2td_queries_total (that counter is the
	// DP release stream); the segstore WAL counters are the write-path metrics,
	// and failures land in the operator request log below.
	s.logRequest(requestLogEntry{
		Dataset:   dataset,
		Status:    status,
		Code:      code,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Error:     err.Error(),
	})
	writeJSON(w, code, errorResponse{Error: err.Error()})
}
