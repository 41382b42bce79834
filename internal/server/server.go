// Package server implements r2td, the multi-tenant differentially private
// query service built on the r2t engine (cmd/r2td is the binary). It hosts
// named datasets (schema + CSV directory, the cmd/r2t format) and answers
// SPJA queries over HTTP/JSON with production plumbing the one-shot CLI
// lacks:
//
//   - per-dataset ε budgets enforced through a durable append-only ledger
//     (framed internal/wal records of JSON entries, fsynced, replayed on
//     startup — a restart never resets privacy spend, and the charge is
//     logged *before* the mechanism runs);
//   - a free-replay answer cache: a repeated (dataset, normalized SQL, ε,
//     GS_Q, β, primary-set) release is served from cache at zero additional
//     ε, because re-publishing an already-released DP output is
//     post-processing (see DESIGN.md);
//   - a bounded worker pool with admission control (429 on saturation),
//     per-request deadlines via context, and graceful drain on shutdown;
//   - a Prometheus-style /metrics endpoint (query counts, cache hit rate, ε
//     spent/remaining per dataset, latency summaries).
//
// Only the ε-DP estimate and budget/latency metadata leave the service;
// the non-private diagnostic fields of r2t.Answer (true answer, τ*, race
// details) are deliberately never serialized.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"r2t"
	"r2t/internal/dp"
	"r2t/internal/repl"
	"r2t/internal/shard"
)

// Config assembles a Server.
type Config struct {
	Datasets   []DatasetConfig
	LedgerPath string // append-only budget WAL (created if absent)

	// Workers bounds concurrent mechanism runs (default GOMAXPROCS).
	// Requests beyond the bound are rejected with 429 rather than queued,
	// so saturation is visible to clients immediately.
	Workers int
	// ExecWorkers bounds each query's join-executor worker pool
	// (r2t.Options.ExecWorkers; default 0 = GOMAXPROCS, 1 = serial).
	// Answers are bit-identical for every setting. With Workers concurrent
	// queries each fanning out ExecWorkers probes, total parallelism is the
	// product; deployments saturating the admission pool may want
	// ExecWorkers=1.
	ExecWorkers int
	// RequestTimeout is the per-query deadline (default 30s). Requests may
	// lower it via timeout_ms but never raise it.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Seed makes noise deterministic for tests and demos (0 = a fresh
	// dp.NewCryptoSource per query). Never set it in production.
	Seed int64
	// RequestLog, when non-nil, receives one JSON line per finished request:
	// outcome, latency, and the per-stage timing breakdown of fresh mechanism
	// runs. The log is OPERATOR-SIDE ONLY — stage timings are data-dependent
	// diagnostics (DESIGN.md §11) and must never be exposed to analysts.
	RequestLog io.Writer

	// Replication (DESIGN.md §14). Role selects this node's side of the
	// primary/replica protocol: "primary" (or empty — the default, also the
	// standalone mode when ReplListen is empty) owns the authoritative ε-ledger
	// and admits charges; "replica" pulls the primary's ledger and rows,
	// serves reads and free replays, and rejects charges with a redirect.
	Role string
	// NodeName identifies this node in epoch records, handshakes, and metrics
	// (default: the hostname).
	NodeName string
	// ReplListen, on a primary, is the TCP address the replication listener
	// binds ("host:port"; empty = standalone, no replication). On a replica it
	// is promotion config: the address the node will serve replicas on after
	// /v1/promote.
	ReplListen string
	// PrimaryAddr points a replica at its primary's ReplListen address.
	// Required when Role is "replica", rejected otherwise.
	PrimaryAddr string
	// SyncReplicas is how many replicas must acknowledge a charge's ledger
	// record before the charge is admitted (0 = asynchronous replication: a
	// lone primary keeps admitting when every replica is down, at the cost of
	// possibly losing the tail of the spend record in a failover — losing
	// spend is the unsafe direction, so production clusters should set 1+).
	SyncReplicas int
	// ReplAckTimeout bounds how long a synchronous charge waits for replica
	// acknowledgements before failing 503 (default 5s).
	ReplAckTimeout time.Duration

	// Sharding (DESIGN.md §16), meaningful with Role "router" only.
	// ShardTimeout bounds one sub-query round trip to a shard (default 5s);
	// ShardHedge is the delay before a hedged second attempt races the first
	// (default ShardTimeout/4). Hedging is safe because sub-queries are
	// uncharged and read-only.
	ShardTimeout time.Duration
	ShardHedge   time.Duration
}

// Server is the r2td service. Create with New, expose via Handler, stop by
// closing the http.Server around it and then calling Close.
type Server struct {
	reg         *Registry
	ledger      *Ledger
	ledgerPath  string
	cache       *answerCache
	metrics     *metrics
	sem         chan struct{}
	execWorkers int
	timeout     time.Duration
	maxBody     int64
	noise       func() r2t.NoiseSource

	repl       *replState
	replListen string // bound at promotion time on replicas
	dedup      *appendDedup

	logMu  sync.Mutex
	reqLog io.Writer
}

// New opens and replays the ledger, loads every dataset with its surviving
// spend, and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.LedgerPath == "" {
		return nil, fmt.Errorf("r2td: ledger path is required (the budget must survive restarts)")
	}
	ledger, spent, err := OpenLedger(cfg.LedgerPath)
	if err != nil {
		return nil, err
	}
	reg, err := LoadDatasets(cfg.Datasets, spent)
	if err != nil {
		ledger.Close()
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	s := &Server{
		reg:         reg,
		ledger:      ledger,
		ledgerPath:  cfg.LedgerPath,
		cache:       newAnswerCache(),
		metrics:     newMetrics(),
		sem:         make(chan struct{}, workers),
		execWorkers: cfg.ExecWorkers,
		timeout:     timeout,
		maxBody:     maxBody,
		dedup:       newAppendDedup(),
		reqLog:      cfg.RequestLog,
	}
	if cfg.Seed != 0 {
		shared := dp.NewLockedSource(dp.NewSource(cfg.Seed))
		s.noise = func() r2t.NoiseSource { return shared }
	} else {
		// Per-query keying must not rely on wall-clock nanoseconds, which
		// collide under concurrency and are adversary-guessable;
		// dp.NewCryptoSource draws from the OS entropy pool and panics
		// (contained by the query path's recover as a uniform 500) rather
		// than degrade.
		s.noise = dp.NewCryptoSource
	}
	// The sharded⟺router pairing is structural: a sharded dataset's charges
	// only make sense on the node that owns the shard group's ledger, and a
	// router hosting local rows would mix two incompatible charge paths.
	for _, name := range reg.Names() {
		ds := reg.Get(name)
		if ds.Sharded() && cfg.Role != RoleRouter {
			reg.Close()
			ledger.Close()
			return nil, fmt.Errorf("r2td: dataset %q is sharded; shards= requires -role=router", name)
		}
		if !ds.Sharded() && cfg.Role == RoleRouter {
			reg.Close()
			ledger.Close()
			return nil, fmt.Errorf("r2td: -role=router hosts sharded datasets only; dataset %q has no shards=", name)
		}
		if ds.Sharded() {
			ds.Pool = shard.NewPool(ds.Shards, shard.PoolConfig{
				Timeout: cfg.ShardTimeout,
				Hedge:   cfg.ShardHedge,
				Logf:    func(format string, args ...any) { fmt.Fprintf(os.Stderr, "r2td: "+format+"\n", args...) },
			})
		}
	}
	if err := s.initReplication(cfg); err != nil {
		ledger.Close()
		reg.Close()
		s.closePools()
		return nil, err
	}
	return s, nil
}

// closePools drops every sharded dataset's connection pool.
func (s *Server) closePools() {
	for _, name := range s.reg.Names() {
		if p := s.reg.Get(name).Pool; p != nil {
			p.Close()
		}
	}
}

// Close releases the ledger and every dataset's durable store. Call after
// the HTTP server has drained: closing a store poisons further appends
// (ErrClosed) but already-fsynced data is simply replayed on next start.
func (s *Server) Close() error {
	s.closeReplication()
	s.closePools()
	err := s.ledger.Close()
	s.reg.Close()
	return err
}

// Handler returns the HTTP API:
//
//	POST /v1/query     evaluate one DP query
//	POST /v1/append    durably append rows to a WAL-backed dataset
//	POST /v1/promote   promote this replica to primary (operator failover)
//	GET  /v1/datasets  hosted datasets with live budget balances
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness probe (process is up)
//	GET  /readyz       readiness probe (ledger is writable, charges can land)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/append", s.handleAppend)
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// handleReady distinguishes "up" from "able to admit charges": it exercises
// the ledger's write path (a zero-ε probe line plus fsync), so a full or
// failing disk — or a ledger already poisoned by an earlier failed append —
// flips readiness before any query has to discover it the hard way. The
// physical probe is rate-limited inside Ledger.Probe (one per few seconds,
// with successful charge appends counting), so this unauthenticated endpoint
// cannot grow the ledger or serialize fsyncs against the charge path.
// On replicas the ledger is never probed — a probe would append a local blank
// line and break the bitwise-prefix invariant. A replica is ready once its
// stream has applied at least the ledger prefix the last handshake promised
// (and stays ready if the primary later dies: it still holds that data, and
// readiness is what an operator checks before promoting it).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	notReady := func(retryAfter string, err error) {
		setRetryAfter(w, retryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %v\n", err)
	}
	if s.repl.isReplica() {
		if s.ledger.Poisoned() {
			notReady(retryAfterOutage, ErrLedgerPoisoned)
			return
		}
		if st := s.replicaStatus(); !st.CaughtUp {
			notReady(retryAfterForLag(st.LagRecords()), fmt.Errorf("replica catching up (%d records behind, connected=%v)", st.LagRecords(), st.Connected))
			return
		}
		fmt.Fprintln(w, "ready")
		return
	}
	if s.repl.fenced.Load() {
		notReady(retryAfterOutage, errFenced)
		return
	}
	if err := s.ledger.Probe(); err != nil {
		notReady(retryAfterOutage, err)
		return
	}
	fmt.Fprintln(w, "ready")
}

// queryRequest is the analyst-facing query API.
type queryRequest struct {
	Dataset string  `json:"dataset"`
	SQL     string  `json:"sql"`
	Epsilon float64 `json:"epsilon"`
	GSQ     float64 `json:"gsq"`
	// Beta is the utility failure probability (default 0.1).
	Beta float64 `json:"beta,omitempty"`
	// Primary overrides the dataset's default primary private relations.
	Primary []string `json:"primary,omitempty"`
	// TimeoutMS lowers (never raises) the server's per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Mechanism selects the release mechanism: "r2t", "laplace", "fixed-tau",
	// "ls", or "auto" (cost-based chooser — see Options.Mechanism). Empty
	// falls back to the dataset's configured default, then to r2t. A
	// mechanism that does not apply to the query's structure is rejected 400
	// before any ε is charged.
	Mechanism string `json:"mechanism,omitempty"`
	// ErrorTarget (auto only): largest acceptable a-priori error bound.
	ErrorTarget float64 `json:"error_target,omitempty"`
	// FixedTau (fixed-tau only): the truncation threshold (0 = GS_Q).
	FixedTau float64 `json:"fixed_tau,omitempty"`
}

// queryResponse carries only releasable data: the ε-DP estimate plus
// budget/latency metadata that depends on the query stream, not the data.
type queryResponse struct {
	Dataset        string  `json:"dataset"`
	Query          string  `json:"query"` // normalized SQL actually answered
	Estimate       float64 `json:"estimate"`
	EpsilonCharged float64 `json:"epsilon_charged"` // 0 on cache hits
	Cached         bool    `json:"cached"`
	// Mechanism is the backend that produced the release. The selection is a
	// data-independent function of the query and its public parameters
	// (DESIGN.md §15), so exposing it leaks nothing about the data.
	Mechanism string `json:"mechanism,omitempty"`
	// There is deliberately no degraded/failure field here: which R2T races
	// survive a run is data-dependent, so the response must not vary with it
	// (DESIGN.md §9d).
	EpsilonSpent     float64 `json:"epsilon_spent"`
	EpsilonRemaining float64 `json:"epsilon_remaining"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
	// EpsilonRemaining is the dataset's unspent ε, included whenever the
	// failed request named a known dataset so clients can tell "retry later"
	// (429, budget intact) from "the budget itself is the problem" (402).
	// Budget balances depend only on the query stream, never on the data,
	// so exposing them here is as safe as /v1/datasets.
	EpsilonRemaining *float64 `json:"epsilon_remaining,omitempty"`
}

// errSaturated marks worker-pool admission failure.
var errSaturated = errors.New("r2td: all workers busy")

// errInternal is the single analyst-visible body for every HTTP 500. Which
// component failed after admission — an LP race, the solver, a contained
// panic — can depend on the private data, so the response must carry no
// structure beyond the abort itself; the real cause goes to the operator log.
var errInternal = errors.New("internal error during query evaluation; any charged ε stands")

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, "", nil, statusInvalid, start, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	ds := s.reg.Get(req.Dataset)
	if ds == nil {
		s.fail(w, req.Dataset, nil, statusNotFound, start, http.StatusNotFound, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	primary := req.Primary
	if len(primary) == 0 {
		primary = ds.Primary
	}
	mechanism := req.Mechanism
	if mechanism == "" {
		mechanism = ds.DefaultMechanism
	}
	opt := r2t.Options{
		Epsilon:     req.Epsilon,
		GSQ:         req.GSQ,
		Beta:        req.Beta,
		Primary:     primary,
		Mechanism:   mechanism,
		ErrorTarget: req.ErrorTarget,
		FixedTau:    req.FixedTau,
		ExecWorkers: s.execWorkers,
		// Profile is always on server-side: the per-stage timings feed the
		// aggregate r2td_stage_seconds_total metrics and the operator request
		// log. They stay operator-side — the analyst response never carries
		// them (DESIGN.md §11, mirroring §9d's uniform-error discipline).
		Profile: true,
	}
	// The prepare stage — options, parse, plan against the schema, mechanism
	// resolution — runs once, reads no data, and is the only way to obtain
	// something the stages below accept: no request it rejects can reach the
	// charge (DESIGN.md §17). It also yields the normalized query text the
	// cache keys on.
	prep, err := ds.DB.Prepare(req.SQL, opt)
	if err != nil {
		s.fail(w, ds.Name, ds, statusInvalid, start, http.StatusBadRequest, err)
		return
	}
	normalized, mechName := prep.SQL(), prep.Choice().Mech

	timeout := s.timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Prepare normalized β (0 means the default), so explicit and implicit
	// defaults share a fingerprint.
	key := fingerprint(ds.Name, normalized, opt.Epsilon, opt.GSQ, prep.Options().Beta, opt.Primary,
		opt.Mechanism, opt.ErrorTarget, opt.FixedTau)

	// Role gate. Replicas serve recorded releases (pure post-processing, zero
	// ε, no charge authority needed) and redirect everything that would
	// charge; a fenced primary refuses charges outright (DESIGN.md §14).
	if s.repl.isReplica() {
		if ans, ok := s.cache.Get(key); ok {
			s.respondQuery(w, ds, normalized, ans, true, start, nil)
			return
		}
		// The redirect target must ALWAYS be populated: the configured primary
		// address, or the last address a handshake actually succeeded against.
		// A 409 without a target strands the client with nowhere to retry.
		w.Header().Set("X-R2T-Primary", s.repl.redirectTarget())
		s.fail(w, ds.Name, ds, statusRedirect, start, http.StatusConflict, errNotPrimary)
		return
	}
	if s.repl.fenced.Load() {
		s.fail(w, ds.Name, ds, statusRedirect, start, http.StatusConflict, errFenced)
		return
	}

	// The evaluate stage is the one thing a sharded dataset does differently:
	// charge here, evaluate there (router.go, DESIGN.md §16).
	evaluate := func(ctx context.Context) ([]r2t.Unit, error) { return ds.DB.Evaluate(ctx, prep) }
	if ds.Sharded() {
		if err := shardGates(ds, prep); err != nil {
			s.fail(w, ds.Name, ds, statusInvalid, start, http.StatusBadRequest, err)
			return
		}
		evaluate = func(ctx context.Context) ([]r2t.Unit, error) { return s.scatter(ctx, ds, req.SQL, prep) }
	}

	// Captured by the leader closure: the stage profile of a fresh run, for
	// the operator log. Coalesced followers and cache hits leave it nil.
	var prof *r2t.Profile
	ans, cached, err := s.cache.Do(ctx, key, func() (ca cachedAnswer, err error) {
		// Contain panics across the whole leader closure, not just the
		// mechanism: a panic between the budget charge and the release must
		// surface to the leader and its coalesced followers as "charged but
		// unanswered" (the safe side — see DESIGN.md §9), never as a crashed
		// process or a torn charge.
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panicRecovered()
				err = fmt.Errorf("r2td: panic during query evaluation (any charged ε stands): %v", p)
			}
		}()
		// Admission control: a slot in the bounded worker pool, or 429.
		// Only fresh mechanism runs consume slots — cache hits and
		// coalesced followers are free.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			return cachedAnswer{}, errSaturated
		}
		// Charge before evaluating: the ledger append is the commit hook, so
		// the charge is durable before it is admitted and admitted before
		// any data is read — on a router, before any shard can observe the
		// sub-query, which is what makes hedges and retries free. From here
		// on the charge stands even if a shard is dead, the mechanism fails
		// or the deadline expires (noise is already drawn; refunds would
		// allow free re-runs).
		if err := ds.Budget.SpendWith(opt.Epsilon, func() error {
			return s.ledger.Append(LedgerEntry{
				Dataset:     ds.Name,
				Epsilon:     opt.Epsilon,
				Query:       normalized,
				Fingerprint: key,
				Epoch:       s.repl.epoch.Load(),
			})
		}); err != nil {
			return cachedAnswer{}, err
		}
		units, err := evaluate(ctx)
		if err != nil {
			return cachedAnswer{}, err
		}
		// The noise source is made here, after the charge: replays and
		// rejections never pay for seeding one.
		released, err := prep.Release(ctx, units, s.noise())
		if err != nil {
			return cachedAnswer{}, err
		}
		prof = released[0].Profile
		s.metrics.observeStages(ds.Name, prof)
		s.metrics.mechSelected(ds.Name, mechName)
		ca = cachedAnswer{
			Estimate:  released[0].Estimate,
			Epsilon:   opt.Epsilon,
			Query:     normalized,
			Mechanism: mechName,
			At:        time.Now(),
		}
		// Stream the release to replicas so their free-replay caches can serve
		// it; best-effort, like the cache itself.
		s.publishAnswer(key, ca)
		return ca, nil
	})
	if err != nil {
		status, code := classifyError(err)
		s.fail(w, ds.Name, ds, status, start, code, err)
		return
	}
	s.respondQuery(w, ds, normalized, ans, cached, start, prof)
}

// respondQuery writes the success path shared by fresh runs, cache hits, and
// replica replays: metrics, the operator log line, and the response body.
func (s *Server) respondQuery(w http.ResponseWriter, ds *Dataset, normalized string, ans cachedAnswer, cached bool, start time.Time, prof *r2t.Profile) {
	charged := ans.Epsilon
	if cached {
		charged = 0
	}
	spent, remaining := ds.Budget.Balance()
	st := statusOK
	if cached {
		st = statusCacheHit
	}
	s.metrics.observe(ds.Name, st, time.Since(start))
	s.logRequest(requestLogEntry{
		Dataset:   ds.Name,
		Status:    st,
		Code:      http.StatusOK,
		Query:     normalized,
		Epsilon:   charged,
		Cached:    cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Stages:    stageMillis(prof),
	})
	writeJSON(w, http.StatusOK, queryResponse{
		Dataset:          ds.Name,
		Query:            normalized,
		Estimate:         ans.Estimate,
		EpsilonCharged:   charged,
		Cached:           cached,
		Mechanism:        ans.Mechanism,
		EpsilonSpent:     spent,
		EpsilonRemaining: remaining,
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1000,
	})
}

// requestLogEntry is one line of the operator request log (Config.RequestLog).
type requestLogEntry struct {
	Time      string             `json:"time"`
	Dataset   string             `json:"dataset"`
	Status    string             `json:"status"`
	Code      int                `json:"code"`
	Query     string             `json:"query,omitempty"` // normalized SQL, when parsing got that far
	Epsilon   float64            `json:"epsilon_charged,omitempty"`
	Cached    bool               `json:"cached,omitempty"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Stages    map[string]float64 `json:"stage_ms,omitempty"` // fresh runs only
	Error     string             `json:"error,omitempty"`    // pre-uniformization cause
}

// stageMillis flattens a profile's stage timings for the request log.
func stageMillis(prof *r2t.Profile) map[string]float64 {
	if prof == nil || len(prof.Stages) == 0 {
		return nil
	}
	out := make(map[string]float64, len(prof.Stages))
	for _, st := range prof.Stages {
		out[st.Stage] = float64(st.Duration.Microseconds()) / 1000
	}
	return out
}

// logRequest appends one JSON line to the operator request log, if configured.
// The log carries data-dependent diagnostics (stage timings, real failure
// causes) and must stay operator-side, like stderr (DESIGN.md §11).
func (s *Server) logRequest(e requestLogEntry) {
	if s.reqLog == nil {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.reqLog.Write(append(line, '\n'))
}

// classifyError maps an evaluation failure to a metrics status and HTTP code.
func classifyError(err error) (string, int) {
	switch {
	case errors.Is(err, errSaturated):
		return statusRejected, http.StatusTooManyRequests
	case errors.Is(err, ErrLedgerPoisoned):
		// 503 fail-closed: no charge can be made durable, so no release may
		// happen. The budget was NOT debited for this request (the commit
		// hook failed before admission); the service needs its ledger
		// reopened (restart) to recover.
		return statusUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, repl.ErrNotEnoughReplicas):
		// 503 fail-closed on the other side of the wire: the charge is durable
		// locally but SyncReplicas replicas did not confirm it in time, so it
		// was not admitted (the ledger merely overcounts — the safe side).
		// Transient by nature; retry once replicas reattach.
		return statusUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, errShardScatter):
		// 503: a shard did not answer its sub-query, so no release happened —
		// but the router's charge stands (charge-before-scatter, DESIGN.md
		// §16: noise-side idempotence cannot be guaranteed once a shard may
		// have evaluated, and refunds would allow free re-runs by killing
		// shards). Retry once the shard map is healthy.
		return statusUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, r2t.ErrBudgetExhausted):
		// 402: the request was valid, the data exists, but the privacy
		// budget cannot pay for another release.
		return statusExhausted, http.StatusPaymentRequired
	case errors.Is(err, context.DeadlineExceeded):
		return statusTimeout, http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusTimeout, http.StatusGatewayTimeout
	default:
		return statusError, http.StatusInternalServerError
	}
}

// datasetInfo is one row of GET /v1/datasets.
type datasetInfo struct {
	Name             string   `json:"name"`
	Relations        int      `json:"relations"`
	DefaultPrimary   []string `json:"default_primary,omitempty"`
	EpsilonTotal     float64  `json:"epsilon_total"`
	EpsilonSpent     float64  `json:"epsilon_spent"`
	EpsilonRemaining float64  `json:"epsilon_remaining"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := make([]datasetInfo, 0, len(s.reg.datasets))
	for _, name := range s.reg.Names() {
		ds := s.reg.Get(name)
		spent, remaining := ds.Budget.Balance()
		out = append(out, datasetInfo{
			Name:             name,
			Relations:        ds.Relations,
			DefaultPrimary:   ds.Primary,
			EpsilonTotal:     ds.Budget.Total(),
			EpsilonSpent:     spent,
			EpsilonRemaining: remaining,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w, s.reg, s.cache, s.ledger, s.repl)
}

// fail records a failed request in metrics and writes the error response.
// Rejections that are worth retrying carry a Retry-After hint: 429 clears as
// soon as a worker frees (seconds), 503 needs operator intervention
// (minutes). When the dataset is known, the body reports its remaining ε so
// clients can distinguish transient rejection from a dead budget.
//
// 500s are reported uniformly: every other class here is data-independent
// (parse errors, budget state, saturation, the ledger's disk), but a
// mechanism failure after admission can encode the private data in its
// message, so the analyst sees errInternal and the cause is logged
// operator-side only (DESIGN.md §9d).
func (s *Server) fail(w http.ResponseWriter, dataset string, ds *Dataset, status string, start time.Time, code int, err error) {
	if dataset == "" {
		dataset = "_unknown"
	}
	s.metrics.observe(dataset, status, time.Since(start))
	s.logRequest(requestLogEntry{
		Dataset:   dataset,
		Status:    status,
		Code:      code,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Error:     err.Error(),
	})
	if code == http.StatusInternalServerError {
		fmt.Fprintf(os.Stderr, "r2td: internal error (dataset %s, reported uniformly to the client): %v\n", dataset, err)
		err = errInternal
	}
	resp := errorResponse{Error: err.Error()}
	if ds != nil {
		_, remaining := ds.Budget.Balance()
		resp.EpsilonRemaining = &remaining
	}
	switch code {
	case http.StatusTooManyRequests:
		setRetryAfter(w, retryAfterBusy)
	case http.StatusServiceUnavailable:
		setRetryAfter(w, retryAfterOutage)
	}
	writeJSON(w, code, resp)
}

// Retry-After hints, in seconds, attached to every 429 and 503 the service
// emits (all paths go through setRetryAfter so the hint is never forgotten):
// busy clears as soon as a worker frees, an outage (poisoned ledger or store,
// fenced primary, not enough sync replicas, an unreachable shard) needs
// operator attention.
const (
	retryAfterBusy   = "1"
	retryAfterOutage = "60"
)

// retryAfterForLag scales a catching-up replica's hint from how far behind it
// actually is. The old fixed "1" made a freshly seeded replica with a million
// records to apply advertise the same hint as one a single record behind, so
// clients hammered it through the whole catch-up. Ledger records apply at
// thousands per second; clamp to [1, 60] like every other hint.
func retryAfterForLag(lag uint64) string {
	secs := lag / 1000
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return fmt.Sprintf("%d", secs)
}

// setRetryAfter attaches the Retry-After hint to a rejection.
func setRetryAfter(w http.ResponseWriter, seconds string) {
	w.Header().Set("Retry-After", seconds)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
