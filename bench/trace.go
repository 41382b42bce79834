package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"r2t"
	"r2t/internal/core"
	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/mech"
	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/segstore"
	"r2t/internal/server"
	"r2t/internal/shard"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// span is one timed call from the bench into a layer's public function.
// Spans of one request share Request; Parent is the index of the enclosing
// span in the trace (-1 for a root). Spans live in memory until the run ends
// and are then written to <out>/trace-<workload>.json.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// rootRequest names the root span of one walked request. Everything a request
// pays for nests under it; spans recorded beside it (shard.scatter against
// the live shards) are measurements of their own and stay out of coverage.
const rootRequest = "request"

// tracer records spans from one goroutine, so a stack of open spans is all
// the parent bookkeeping there is.
type tracer struct {
	begin time.Time
	spans []span
	open  []int
	req   int
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// in opens a span and returns the function that closes it.
func (t *tracer) in(name string) func() {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartUS: micros(time.Since(t.begin)), Parent: parent, Request: t.req})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndUS = micros(time.Since(t.begin))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns every span's self time (µs) — its duration minus the part
// its direct children cover — grouped by span name, and per request the total
// self time under its rootRequest span.
func (t *tracer) selfTimes() (byName map[string][]float64, perRequest map[int]float64) {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	byName, perRequest = map[string][]float64{}, map[int]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], self[i])
		root := i
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		if t.spans[root].Name == rootRequest {
			perRequest[s.Request] += self[i]
		}
	}
	return byName, perRequest
}

// walker re-walks requests on the twin: the same public functions the server
// calls for a request of that class, in the same order, each under a span.
// Its state mirrors the server's — a join-core cache, tables that grow with
// the appends, a ledger that is fsynced per charge — so a request meets the
// caches in the state the server's did.
type walker struct {
	t       *tracer
	d       *dataset
	db      *r2t.DB
	cores   *exec.CoreCache
	ledger  *server.Ledger
	store   *segstore.Store // durable workloads: the twin's own WALs
	noise   dp.NoiseSource
	sharded bool
	shards  []*r2t.DB   // topoSharded: one twin per shard slice
	pool    *shard.Pool // topoSharded: a bench-owned pool over the live shards

	counters   map[string]int64 // obs counters summed over walked releases
	releases   int
	races      int
	lpSolveUS  []float64 // obs lp-solve stage per release
	noiseUS    []float64 // obs noise stage per release
	arenaMB    []float64 // arena bytes per cold join core
	replyBytes []float64 // Σ shard reply payloads per scatter
}

func newWalker(e *env, dir string) (*walker, error) {
	w := &walker{
		t:        &tracer{begin: time.Now()},
		d:        e.data,
		db:       r2t.NewDBWithInstance(e.data.inst),
		cores:    exec.NewCoreCache(r2t.DefaultJoinShareCap),
		noise:    dp.NewSource(e.cfg.seed),
		sharded:  e.w.topo == topoSharded,
		counters: map[string]int64{},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if w.ledger, _, err = server.OpenLedger(filepath.Join(dir, "walk.ledger")); err != nil {
		return nil, err
	}
	if e.w.durable {
		if w.store, err = segstore.Open(filepath.Join(dir, "walk-wal"), e.data.inst); err != nil {
			return nil, err
		}
	}
	if w.sharded {
		var nodes []shard.Node
		for i, part := range e.c.shards {
			w.shards = append(w.shards, r2t.NewDBWithInstance(part.inst))
			nodes = append(nodes, shard.Node{Name: e.c.nodes[i].name, Addr: e.c.nodes[i].srv.ReplAddr()})
		}
		w.pool = shard.NewPool(nodes, shard.PoolConfig{})
	}
	return w, nil
}

func (w *walker) close() {
	w.ledger.Close()
	if w.store != nil {
		w.store.Close()
	}
	if w.pool != nil {
		w.pool.Close()
	}
}

// walk re-walks request i.
func (w *walker) walk(i int, r *request) error {
	w.t.req = i
	defer w.t.in(rootRequest)()
	if r.class == classAppend {
		return w.walkAppend(r)
	}
	done := w.t.in("server.decode")
	var qb queryBody
	err := json.Unmarshal(r.body, &qb)
	done()
	if err != nil {
		return err
	}
	encode := func(v any) {
		defer w.t.in("server.encode")()
		json.Marshal(v)
	}

	// Charge-free preparation, as handleQuery does it: explain, then choose.
	done = w.t.in("r2t.explain")
	expl, err := w.db.Explain(qb.SQL, qb.Primary)
	done()
	if err != nil {
		encode(response{Error: err.Error()})
		return rejectOr(r, err)
	}
	choose := func() (*mech.Choice, error) {
		defer w.t.in("mech.choose")()
		return mech.Choose(mech.Shape{SelfJoin: expl.SelfJoin, Projection: expl.Projection},
			mech.Config{Mechanism: qb.Mechanism, Epsilon: qb.Epsilon, GSQ: qb.GSQ})
	}
	if _, err := choose(); err != nil {
		encode(response{Error: err.Error()})
		return rejectOr(r, err)
	}
	if r.class == classReplay {
		encode(response{Cached: true}) // an answer-cache hit ends here
		return nil
	}

	// Charge before running.
	done = w.t.in("server.ledger_append")
	err = w.ledger.Append(server.LedgerEntry{Dataset: qb.Dataset, Epsilon: qb.Epsilon, Query: expl.Query, Fingerprint: "walk"})
	done()
	if err != nil {
		return err
	}

	cfg := core.Config{Epsilon: qb.Epsilon, GSQ: qb.GSQ, Noise: w.noise, EarlyStop: true, Recorder: obs.NewRecorder()}
	var tr truncation.Truncator
	if w.sharded {
		tr, err = w.evaluateSharded(&qb)
		cfg.Recorder.Add(obs.CtrPartitionFastPath, 1) // a merged partition is the closed form
	} else {
		// QueryContext prepares a second time: parse, plan, choose.
		done = w.t.in("sql.parse")
		parsed, perr := sql.Parse(qb.SQL)
		done()
		if perr != nil {
			return perr
		}
		done = w.t.in("plan.build")
		p, perr := plan.Build(parsed, w.d.inst.Schema, schema.PrivateSpec{Primary: qb.Primary})
		done()
		if perr != nil {
			return perr
		}
		if _, err := choose(); err != nil {
			return err
		}
		tr, err = w.evaluateLocal(p, cfg.Recorder)
	}
	if err != nil {
		return err
	}
	done = w.t.in("core.run")
	out, err := core.Run(tr, cfg)
	done()
	if err != nil {
		return err
	}
	w.harvest(cfg.Recorder.Snapshot(), out)
	encode(response{Estimate: out.Estimate, EpsilonCharged: qb.Epsilon})
	return nil
}

// rejectOr accepts err when the request is one the server must reject too.
func rejectOr(r *request, err error) error {
	if r.class == classReject {
		return nil
	}
	return err
}

// evaluateLocal is the single-node evaluate stage: join core (shared when a
// current one is cached), aggregate pass, truncation operator.
func (w *walker) evaluateLocal(p *plan.Plan, rec *obs.Recorder) (truncation.Truncator, error) {
	done := w.t.in("exec.core")
	c, hit, err := w.cores.Get(context.Background(), p, w.d.inst, exec.Config{Recorder: rec})
	done()
	if err != nil {
		return nil, err
	}
	if !hit {
		w.arenaMB = append(w.arenaMB, float64(rec.Snapshot().Counters[obs.CtrArenaBytes.String()])/(1<<20))
	}
	done = w.t.in("exec.result")
	res, err := c.Result(p, rec)
	done()
	if err != nil {
		return nil, err
	}
	defer w.t.in("truncation.build")()
	occ := truncation.FromResult(res)
	if pt := truncation.NewPartitionFromOccurrences(occ); pt != nil {
		pt.SetRecorder(rec)
		rec.Add(obs.CtrPartitionFastPath, 1)
		return pt, nil
	}
	lt := truncation.NewLPFromOccurrences(occ)
	lt.SetRecorder(rec)
	return lt, nil
}

// evaluateSharded is the router's evaluate stage with the shards' half done
// on the per-shard twins, one after the other: encode the sub-query, each
// shard's Partials, merge. Beside the request it also times one Scatter of
// the same payload through a bench-owned pool against the live shards.
func (w *walker) evaluateSharded(qb *queryBody) (truncation.Truncator, error) {
	ctx := context.Background()
	done := w.t.in("shard.encode_subquery")
	payload := shard.EncodeSubQuery(shard.SubQuery{Dataset: qb.Dataset, SQL: qb.SQL, Primary: qb.Primary, Epsilon: qb.Epsilon, GSQ: qb.GSQ})
	done()
	opt := r2t.Options{Epsilon: qb.Epsilon, GSQ: qb.GSQ, Primary: qb.Primary, Mechanism: mech.MechR2T, EarlyStop: true}
	var parts []*truncation.Partial
	for _, sdb := range w.shards {
		done = w.t.in("shard.partials")
		qp, err := sdb.Partials(ctx, qb.SQL, opt)
		done()
		if err != nil {
			return nil, err
		}
		parts = append(parts, qp.Units...)
	}
	done = w.t.in("shard.merge")
	merged, err := truncation.MergePartials(parts)
	done()
	if err != nil {
		return nil, err
	}

	// Not part of the request's own tree: close the root around it.
	open := w.t.open
	w.t.open = nil
	done = w.t.in("shard.scatter")
	raws, err := w.pool.Scatter(ctx, payload)
	done()
	w.t.open = open
	if err != nil {
		return nil, err
	}
	total := 0
	for _, raw := range raws {
		total += len(raw)
	}
	w.replyBytes = append(w.replyBytes, float64(total))
	return merged, nil
}

func (w *walker) walkAppend(r *request) error {
	done := w.t.in("server.decode")
	var body struct {
		Relation string     `json:"relation"`
		Rows     [][]string `json:"rows"`
	}
	err := json.Unmarshal(r.body, &body)
	rows := make([]storage.Row, len(body.Rows))
	for i, fields := range body.Rows {
		rows[i] = make(storage.Row, len(fields))
		for c, f := range fields {
			rows[i][c] = value.Parse(f)
		}
	}
	done()
	if err != nil {
		return err
	}
	done = w.t.in("segstore.insert")
	err = w.store.Insert(body.Relation, rows...)
	done()
	if err != nil {
		return err
	}
	defer w.t.in("server.encode")()
	json.Marshal(response{Appended: len(rows)})
	return nil
}

// harvest folds one release's engine-side profile into the walker's totals.
func (w *walker) harvest(prof *obs.Profile, out *core.Output) {
	w.releases++
	for _, race := range out.Races {
		if race.Solved {
			w.races++
		}
	}
	for name, v := range prof.Counters {
		w.counters[name] += v
	}
	stage := map[string]float64{}
	for _, st := range prof.Stages {
		stage[st.Stage] = micros(st.Duration)
	}
	w.lpSolveUS = append(w.lpSolveUS, stage[obs.StageLPSolve.String()])
	w.noiseUS = append(w.noiseUS, stage[obs.StageNoise.String()])
}

// writeTrace leaves the spans where a human (or a later tool) can read them.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
