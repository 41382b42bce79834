package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"r2t"
	"r2t/internal/obs"
	"r2t/internal/segstore"
	"r2t/internal/server"
	"r2t/internal/storage"
)

// scrape is one reading of a node's /metrics: series ("name{labels}") → value.
type scrape map[string]float64

func scrapeNode(client *http.Client, n *node) (scrape, error) {
	resp, err := client.Get(n.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// scrapeCluster adds up every node's series: a counter's cluster-wide value.
func scrapeCluster(client *http.Client, c *cluster) (scrape, error) {
	total := scrape{}
	for _, n := range c.nodes {
		s, err := scrapeNode(client, n)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			total[k] += v
		}
	}
	return total, nil
}

// sum adds the series of one metric name whose label set contains label
// ("" = every series of the name).
func (s scrape) sum(name, label string) float64 {
	total := 0.0
	for k, v := range s {
		if (k == name || strings.HasPrefix(k, name+"{")) && strings.Contains(k, label) {
			total += v
		}
	}
	return total
}

// delta is after − before for one metric name and label.
func delta(before, after scrape, name, label string) float64 {
	return after.sum(name, label) - before.sum(name, label)
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// requestLog collects Config.RequestLog lines from the traced pass.
type requestLog struct {
	mu    sync.Mutex
	lines []logLine
}

type logLine struct {
	Status    string             `json:"status"`
	Query     string             `json:"query"`
	Epsilon   float64            `json:"epsilon_charged"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Stages    map[string]float64 `json:"stage_ms"`
}

func (l *requestLog) Write(b []byte) (int, error) {
	var line logLine
	if err := json.Unmarshal(b, &line); err == nil {
		l.mu.Lock()
		l.lines = append(l.lines, line)
		l.mu.Unlock()
	}
	return len(b), nil
}

// procStats is the process's resource use so far.
type procStats struct {
	user, sys float64 // CPU seconds
	gcPauseMS float64
	allocMB   float64
}

func readProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procStats{
		user: tv(ru.Utime), sys: tv(ru.Stime),
		gcPauseMS: float64(ms.PauseTotalNs) / 1e6,
		allocMB:   float64(ms.TotalAlloc) / (1 << 20),
	}
}

// fileSize is the file's size in bytes, 0 if it does not exist.
func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// walkBudget bounds the twin walk: at most this share of -seconds.
const walkBudget = 0.5

// runTraced measures the layers. It makes no end-to-end claim: those come
// from the untraced run. Three passes over the same request list (sized for
// half of -seconds):
//
//	A  an untraced cluster, driven exactly like a measured run — the base
//	   for tail latencies, process costs and the tracing overhead;
//	B  an identical cluster with Config.RequestLog wired to memory, bracketed
//	   by /metrics scrapes — the server's own stage timings and counters;
//	C  the walk: each request re-walked on the twin, one span per call into
//	   a layer's public function.
func runTraced(w *workload, cfg runConfig) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer this workload never entered
		}
		res.put(name, v)
	}
	n := w.count(cfg.seconds * cfg.scale / 2)
	limit := time.Duration(limitFactor * cfg.seconds * float64(time.Second))
	scraper := newHTTPClient(1)
	defer scraper.CloseIdleConnections()

	// Pass A.
	a, err := setUp(w, cfg, filepath.Join(cfg.outDir, w.name+"-a"), nil)
	if err != nil {
		return nil, err
	}
	reqs := w.requests(a.data, a.warm.reqs, n, cfg.seed)
	procBefore := readProc()
	pa := runPass(a.client, a.c.front.ts.URL, reqs, w.clients, w.stride, limit)
	procAfter := readProc()
	a.tearDown()

	// Pass B.
	rlog := &requestLog{}
	b, err := setUp(w, cfg, filepath.Join(cfg.outDir, w.name+"-b"), rlog)
	if err != nil {
		return nil, err
	}
	defer b.tearDown()
	rlog.lines = nil // the warm-up's lines
	frontDir := filepath.Join(b.c.base, b.c.front.name)
	ledgerPath := filepath.Join(frontDir, "budget.ledger")
	walBytes := func() float64 { // the two relations the mix appends to
		return fileSize(filepath.Join(frontDir, "wal", "Orders.wal")) + fileSize(filepath.Join(frontDir, "wal", "Customer.wal"))
	}
	before, err := scrapeCluster(scraper, b.c)
	if err != nil {
		return nil, err
	}
	ledgerBefore, walBefore := fileSize(ledgerPath), walBytes()
	stopLag := func() float64 { return 0 }
	if w.topo == topoReplicated {
		stopLag = watchLag(scraper, b.c.front)
	}
	pb := runPass(b.client, b.c.front.ts.URL, reqs, w.clients, w.stride, limit)
	lag := stopLag()
	after, err := scrapeCluster(scraper, b.c)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = len(pa.samples)+len(pb.samples), pa.failed()+pb.failed()

	// The /healthz round trip: what any request pays before it reaches a layer.
	var floor []float64
	for i := 0; i < 200; i++ {
		begin := time.Now()
		resp, err := b.client.Get(b.c.front.ts.URL + "/healthz")
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		floor = append(floor, micros(time.Since(begin)))
	}

	// Pass C: the walk, in list order so the twin's caches and tables evolve
	// as the server's did.
	wk, err := newWalker(b, filepath.Join(cfg.outDir, w.name+"-walk"))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, w.name+"-walk"))
	defer wk.close()
	walkUntil := time.Now().Add(time.Duration(walkBudget * cfg.seconds * float64(time.Second)))
	walked := 0
	for i := range reqs {
		if i%w.stride == 0 && time.Now().After(walkUntil) {
			break
		}
		if err := wk.walk(i, &reqs[i]); err != nil {
			return nil, fmt.Errorf("%s: walking request %d (%s): %w", w.name, i, reqs[i].class, err)
		}
		walked++
	}
	if err := wk.t.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	self, perRequest := wk.t.selfTimes()

	med := func(name string) float64 { return median(self[name]) }
	put("sql.parse_us", med("sql.parse"))
	put("plan.build_us", med("plan.build"))
	put("mech.choose_us", med("mech.choose"))
	put("r2t.explain_us", med("r2t.explain"))
	put("exec.core_ms", med("exec.core")/1e3)
	put("exec.result_ms", med("exec.result")/1e3)
	put("truncation.build_ms", med("truncation.build")/1e3)
	put("core.run_ms", med("core.run")/1e3)
	put("lp.solve_ms", median(wk.lpSolveUS)/1e3)
	put("dp.noise_us", median(wk.noiseUS))
	put("server.decode_us", med("server.decode"))
	put("server.encode_us", med("server.encode"))
	put("server.ledger_append_us", med("server.ledger_append"))
	put("segstore.insert_us", med("segstore.insert"))
	put("shard.merge_us", med("shard.merge"))
	put("shard.scatter_ms", med("shard.scatter")/1e3)
	put("shard.partials_ms", slowestPerRequest(wk.t.spans, "shard.partials")/1e3)
	put("shard.reply_bytes", median(wk.replyBytes))
	put("shard.row_skew", rowSkew(b.c.shards))

	ctr := func(c obs.Counter) float64 { return float64(wk.counters[c.String()]) }
	perRelease := func(v float64) float64 { return v / float64(wk.releases) }
	put("exec.rows_probed_per_emitted", ctr(obs.CtrExecRowsProbed)/ctr(obs.CtrExecRowsOut))
	put("exec.arena_mb", median(wk.arenaMB))
	put("truncation.partition_share", perRelease(ctr(obs.CtrPartitionFastPath)))
	put("lp.simplex_iters", perRelease(ctr(obs.CtrSimplexIters)))
	put("lp.grid_redundant_skips", perRelease(ctr(obs.CtrRedundantSkips)))
	put("core.races_per_release", perRelease(float64(wk.races)))
	put("core.early_stop_prunes", perRelease(ctr(obs.CtrEarlyStopPrune)))

	// Counters: /metrics deltas over pass B, summed over the cluster's nodes.
	d := func(name, label string) float64 { return delta(before, after, name, label) }
	put("exec.core_cache_hit_ratio", ratio(d("r2td_join_core_cache_hits_total", "")+d("r2td_join_core_cache_coalesced_total", ""), d("r2td_join_core_cache_misses_total", "")))
	put("exec.core_cache_stale", d("r2td_join_core_cache_stale_total", ""))
	put("exec.index_hit_ratio", ratio(d("r2td_index_cache_hits_total", ""), d("r2td_index_cache_misses_total", "")))
	put("exec.index_extensions", d("r2td_index_cache_extensions_total", ""))
	put("exec.index_rebuilds", d("r2td_index_cache_rebuilds_total", ""))
	put("server.answer_cache_hit_ratio", ratio(d("r2td_queries_total", `status="cache_hit"`), d("r2td_queries_total", `status="ok"`)))
	put("server.rejected_429", d("r2td_queries_total", `status="rejected"`))
	appends := d("r2td_wal_appends_total", "")
	put("segstore.fsyncs_per_append", d("r2td_wal_fsyncs_total", "")/appends)
	put("segstore.fsync_s", d("r2td_wal_fsync_seconds_total", ""))
	put("segstore.wal_bytes_per_row_byte", (walBytes()-walBefore)/appendedTextBytes(pb))
	put("repl.lag_records_max", lag)
	put("repl.disconnects", d("r2td_repl_disconnects_total", ""))
	put("shard.hedges", d("r2td_shard_hedges_total", ""))
	put("shard.call_failures", d("r2td_shard_call_failures_total", ""))
	put("shard.conn_reuse_ratio", d("r2td_shard_conn_reuses_total", "")/d("r2td_shard_calls_total", ""))
	freshB := float64(len(pb.latencies(classFresh)))
	put("server.ledger_bytes_per_charge", (fileSize(ledgerPath)-ledgerBefore)/freshB)

	// Latency classes: tails from the untraced pass A.
	put("server.fresh_p99_ms", quantile(pa.latencies(classFresh), 0.99))
	put("server.replay_p99_ms", quantile(pa.latencies(classReplay), 0.99))
	put("server.append_p50_ms", quantile(pa.latencies(classAppend), 0.5))
	put("server.append_p99_ms", quantile(pa.latencies(classAppend), 0.99))
	put("server.reject_p50_us", quantile(pa.latencies(classReject), 0.5)*1e3)
	put("server.http_floor_us", median(floor))
	put("server.admission_us", admissionUS(b, pb, rlog))

	// Process costs over pass A.
	cpu := (procAfter.user - procBefore.user) + (procAfter.sys - procBefore.sys)
	put("proc.cpu_s", cpu)
	put("proc.sys_share", (procAfter.sys-procBefore.sys)/cpu)
	put("proc.gc_pause_ms", procAfter.gcPauseMS-procBefore.gcPauseMS)
	put("proc.alloc_mb_per_req", (procAfter.allocMB-procBefore.allocMB)/float64(len(pa.samples)))

	// Coverage: the walked requests' layer self time against what the same
	// requests took over HTTP in pass B.
	var walkedUS, httpUS float64
	for _, s := range pb.samples {
		if t, ok := perRequest[s.idx]; ok {
			walkedUS += t
			httpUS += micros(s.latency())
		}
	}
	put("trace.coverage", walkedUS/httpUS)
	put("trace.overhead_share", 1-pb.throughput(w.stride)/pa.throughput(w.stride))
	put("trace.walked_requests", float64(walked))

	// Restart's parts, on what pass B left on disk.
	if err := b.c.close(); err != nil {
		return nil, err
	}
	for _, part := range []struct {
		metric  string
		applies bool
		fn      func() error
	}{
		{"server.ledger_replay_ms", true, func() error {
			l, _, err := server.OpenLedger(ledgerPath)
			if err != nil {
				return err
			}
			return l.Close()
		}},
		{"segstore.replay_ms", w.durable, func() error {
			st, err := segstore.Open(filepath.Join(frontDir, "wal"), storage.NewInstance(b.data.inst.Schema))
			if err != nil {
				return err
			}
			return st.Close()
		}},
		{"storage.csv_load_ms", true, func() error {
			dir := filepath.Join(b.c.base, "data")
			if w.topo == topoSharded {
				dir += "0"
			}
			db := r2t.NewDB(b.data.inst.Schema)
			for _, rel := range b.data.inst.Schema.Names() {
				if err := db.LoadCSV(rel, filepath.Join(dir, rel+".csv")); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		ms := 0.0
		if part.applies {
			begin := time.Now()
			if err := part.fn(); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", w.name, part.metric, err)
			}
			ms = micros(time.Since(begin)) / 1e3
		}
		put(part.metric, ms)
	}

	// The replica's price: the same list on a replica-less twin of the primary.
	ack := 0.0
	if w.topo == topoReplicated {
		solo := *w
		solo.topo = topoSingle
		s, err := setUp(&solo, cfg, filepath.Join(cfg.outDir, w.name+"-solo"), nil)
		if err != nil {
			return nil, err
		}
		ps := runPass(s.client, s.c.front.ts.URL, reqs, w.clients, w.stride, limit)
		s.tearDown()
		ack = quantile(pa.latencies(classFresh), 0.5) - quantile(ps.latencies(classFresh), 0.5)
	}
	put("repl.ack_ms", ack)

	if res.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d responses had the wrong status, cached flag or charge for their class", res.Failed, res.Attempted))
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// watchLag samples the primary's replication-lag gauge every 100 ms until
// the returned function is called, which reports the worst value seen.
func watchLag(client *http.Client, primary *node) (stop func() float64) {
	done, worst := make(chan struct{}), make(chan float64)
	go func() {
		seen := 0.0
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				worst <- seen
				return
			case <-tick.C:
				if s, err := scrapeNode(client, primary); err == nil {
					seen = math.Max(seen, s.sum("r2td_repl_lag_records", ""))
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-worst
	}
}

// slowestPerRequest is the median over requests of the longest span of that
// name within the request: with parallel shards the slowest sets the time.
func slowestPerRequest(spans []span, name string) float64 {
	worst := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			worst[s.Request] = math.Max(worst[s.Request], s.dur())
		}
	}
	vals := make([]float64, 0, len(worst))
	for _, v := range worst {
		vals = append(vals, v)
	}
	return median(vals)
}

// appendedTextBytes is the payload size of the pass's acknowledged appends:
// the bytes of their fields as text.
func appendedTextBytes(p *pass) float64 {
	total := 0
	for _, s := range p.samples {
		r := &p.reqs[s.idx]
		if r.class != classAppend || !s.expected(r) {
			continue
		}
		for _, row := range r.rows {
			for _, v := range row {
				total += len(v.String())
			}
		}
	}
	return float64(total)
}

// admissionUS is the median, over pass B's fresh requests, of the HTTP
// latency minus the in-library stage time the server logged for the same
// request: decode, prepare, cache and single-flight, the worker semaphore,
// the ledger append and replica ack, encode, and the HTTP round trip itself.
func admissionUS(e *env, p *pass, rlog *requestLog) float64 {
	stageMS := map[string]float64{} // normalized SQL | ε → Σ stage_ms
	rlog.mu.Lock()
	for _, l := range rlog.lines {
		if l.Status != "ok" {
			continue
		}
		sum := 0.0
		for _, ms := range l.Stages {
			sum += ms
		}
		stageMS[l.Query+"|"+strconv.FormatFloat(l.Epsilon, 'g', -1, 64)] = sum
	}
	rlog.mu.Unlock()
	db := r2t.NewDBWithInstance(e.data.inst)
	normalized := map[string]string{} // SQL text → the form the server logs
	var out []float64
	for _, s := range p.samples {
		r := &p.reqs[s.idx]
		if r.class != classFresh || !s.expected(r) {
			continue
		}
		query, ok := normalized[r.sql]
		if !ok {
			expl, err := db.Explain(r.sql, r.primary)
			if err != nil {
				continue
			}
			query = expl.Query
			normalized[r.sql] = query
		}
		// Sharded datasets log no stages (the router runs none): the whole
		// latency is admission plus scatter.
		sum := stageMS[query+"|"+strconv.FormatFloat(r.eps, 'g', -1, 64)]
		out = append(out, micros(s.latency())-sum*1e3)
	}
	sort.Float64s(out)
	return quantile(out, 0.5)
}
