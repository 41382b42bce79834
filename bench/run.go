package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"r2t"
)

const (
	// setup_s is the median of at least minSetups set-ups per run, and of up
	// to maxSetups while they fit in setupBudget: a 50 ms set-up needs more
	// repeats than a 3 s one to give a steady median.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
	restartReps = 9 // restarts per run; restart_s is their median
	// replayCount free replays are issued after the pass on workloads whose
	// mix has none. A replay is a ~0.1 ms round trip whose median moved ~40%
	// between runs at 400 samples and ~4% at 20 000.
	replayCount = 20000
	truthSample = 60 // distinct SQL texts per run whose truth the twin computes
	// limitFactor × -seconds is the backstop after which a pass starts no
	// further block of requests.
	limitFactor = 3
)

// runConfig is one workload run's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	scale   float64 // dataset and request-count scale (1 = benchmark size)
	outDir  string  // scratch tree; the run removes what it creates
	trace   bool
	log     io.Writer // progress and check failures
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports. Its JSON form is the driver's
// result line: exactly correct, attempted, failed and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digest    string            `json:"-"` // release_digest, one-client workloads only
	Problems  []string          `json:"-"` // failed output checks
}

// put records a metric under its declared unit. Reporting an undeclared
// metric is a bug in the bench.
func (r *result) put(name string, v float64) {
	sp, ok := specByName(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{v, sp.unit}
}

// env is one set-up: a booted cluster over freshly generated data, warmed up.
type env struct {
	w      *workload
	cfg    runConfig
	data   *dataset
	c      *cluster
	client *http.Client
	warm   *pass // the warm-up requests driven during set-up
}

// setUp generates the data from the seed, writes CSV + schema, boots the
// topology and drives the warm-up. All of it is setup_s.
func setUp(w *workload, cfg runConfig, dir string, reqLog io.Writer) (*env, error) {
	// A tree an earlier, killed run left behind would be replayed as state.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	e := &env{w: w, cfg: cfg, client: newHTTPClient(w.clients)}
	e.data = w.generate(cfg.seed, cfg.scale)
	e.c = &cluster{topo: w.topo, durable: w.durable, base: dir, seed: cfg.seed, data: e.data, reqLog: reqLog}
	if w.topo == topoSharded {
		e.c.shards = splitShop(e.data, numShards)
	}
	if err := e.c.writeData(); err != nil {
		return nil, err
	}
	if err := e.c.boot(); err != nil {
		e.c.close()
		return nil, err
	}
	warm := w.warmup(e.data)
	e.warm = runPass(e.client, e.c.front.ts.URL, warm, 1, len(warm), time.Hour)
	if n := e.warm.failed(); n > 0 {
		e.tearDown()
		return nil, fmt.Errorf("%s: %d of %d warm-up requests failed", w.name, n, len(warm))
	}
	return e, nil
}

func (e *env) tearDown() {
	e.c.close()
	e.client.CloseIdleConnections()
	os.RemoveAll(e.c.base)
}

// restart closes every node, boots the topology again over the same
// directories, and returns the time until the first fresh query is answered
// 200 — what an operator waits for after bouncing the service.
func (e *env) restart(k int) (time.Duration, sample, error) {
	probe := e.w.probe(e.data, k)
	begin := time.Now()
	if err := e.c.close(); err != nil {
		return 0, sample{}, err
	}
	e.client.CloseIdleConnections()
	if err := e.c.boot(); err != nil {
		return 0, sample{}, err
	}
	var s sample
	s.code, s.resp, s.err = do(e.client, e.c.front.ts.URL, &probe)
	d := time.Since(begin)
	if !s.expected(&probe) {
		return d, s, fmt.Errorf("first query after restart: code %d err %v %s", s.code, s.err, s.resp.Error)
	}
	return d, s, nil
}

// spent reads the dataset's ε spent from the front node.
func (e *env) spent() (float64, error) {
	resp, err := e.client.Get(e.c.front.ts.URL + "/v1/datasets")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var infos []struct {
		Name  string  `json:"name"`
		Spent float64 `json:"epsilon_spent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return 0, err
	}
	for _, in := range infos {
		if in.Name == e.data.name {
			return in.Spent, nil
		}
	}
	return 0, fmt.Errorf("dataset %q not listed", e.data.name)
}

// runWorkload is one measured run of one workload: set-up (several times, for
// a steady setup_s), the measured pass, free replays, restarts, and the
// output checks. With cfg.trace it measures the layers instead (trace.go).
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	if cfg.trace {
		return runTraced(w, cfg)
	}
	res := &result{Metrics: map[string]metric{}}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	var e *env
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget); {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, cfg, filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d", w.name, len(setups))), nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.tearDown()
	fmt.Fprintf(cfg.log, "%s: set up %d times %.3v s\n", w.name, len(setups), setups)

	// The measured pass.
	n := w.count(cfg.seconds * cfg.scale)
	reqs := w.requests(e.data, e.warm.reqs, n, cfg.seed)
	limit := time.Duration(limitFactor * cfg.seconds * float64(time.Second))
	p := runPass(e.client, e.c.front.ts.URL, reqs, w.clients, w.stride, limit)
	fmt.Fprintf(cfg.log, "%s: %d of %d requests in %.2f s\n", w.name, len(p.samples), len(reqs), p.wall.Seconds())
	res.Attempted, res.Failed = len(p.samples), p.failed()
	charged := e.warm.charged() + p.charged()

	// Free replays: the mix's own where it has them, else a re-issue of
	// requests the pass already paid for.
	replayP50 := median(p.latencies(classReplay))
	if math.IsNaN(replayP50) {
		want := max(int(replayCount*cfg.scale), 100)
		var again []request
		for _, s := range p.samples {
			if r := p.reqs[s.idx]; r.class == classFresh && s.expected(&r) && len(again) < want {
				again = append(again, r.asReplay())
			}
		}
		for base := len(again); base > 0 && len(again) < want; {
			again = append(again, again[:base]...)
		}
		rp := runPass(e.client, e.c.front.ts.URL, again, w.clients, 1, limit)
		res.Attempted, res.Failed = res.Attempted+len(rp.samples), res.Failed+rp.failed()
		replayP50 = median(rp.latencies(classReplay))
	}

	// Utility, before anything else touches the twin.
	relErrs, within, judged := e.utility(p)

	// Restarts.
	var restarts []float64
	for k := 1; k <= restartReps; k++ {
		d, s, err := e.restart(k)
		if err != nil {
			return nil, fmt.Errorf("%s: restart %d: %w", w.name, k, err)
		}
		restarts = append(restarts, d.Seconds())
		charged += s.resp.EpsilonCharged
	}

	// Output checks: nothing acknowledged was lost across the restarts, and
	// nothing rejected was charged.
	spent, err := e.spent()
	if err != nil {
		return nil, err
	}
	if math.Abs(spent-charged) > 1e-9*charged {
		problem("ε spent after restart %.12g != sum of acknowledged charges %.12g", spent, charged)
	}
	for _, rel := range []string{"Orders", "Customer"} {
		if !w.durable {
			break
		}
		// One more append reports the relation's row count.
		more := appendRequest(e.data, rand.New(rand.NewSource(cfg.seed)), rel, 1<<40, "")
		code, resp, err := do(e.client, e.c.front.ts.URL, &more)
		want := e.data.inst.Table(rel).Len() + p.appendedRows(rel) + len(more.rows)
		if err != nil || code != http.StatusOK || resp.TotalRows != want {
			problem("%s rows after restart: code %d err %v total_rows %d, want %d", rel, code, err, resp.TotalRows, want)
		}
	}
	// Theorem 5.1 at β = 0.1 promises each release is within the bound with
	// probability ≥ 0.9; fail only when the share falls three standard
	// deviations of that binomial short, so that chance alone does not.
	if n := float64(judged); float64(within) < 0.9*n-3*math.Sqrt(0.09*n) {
		problem("only %d of %d releases within the Theorem 5.1 bound of the truth", within, judged)
	}
	if res.Failed > 0 {
		problem("%d of %d responses had the wrong status, cached flag or charge for their class", res.Failed, res.Attempted)
	}
	if len(p.samples) < len(reqs) {
		problem("pass hit its %v backstop after %d of %d requests", limit, len(p.samples), len(reqs))
	}
	if w.clients == 1 {
		res.Digest = releaseDigest(p)
	}

	res.put("setup_s", median(setups))
	res.put("throughput_rps", p.throughput(w.stride))
	res.put("fresh_p50_ms", p.turnP50(classFresh, w.stride))
	res.put("replay_p50_ms", replayP50)
	res.put("restart_s", median(restarts))
	res.put("rel_err_p50", median(relErrs))
	res.put("peak_rss_mb", peakRSSMB())
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problem("metric %s is %v", name, m.Value)
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// utility compares the pass's releases with the twin's exact answers. It
// returns |estimate − truth| / truth per judged release, and how many of
// them fall within r2t.ErrorBound (Theorem 5.1 at β = 0.1) of the truth.
//
// Where the data moves under the pass (appends), the judged releases are the
// warm-up's, released during set-up on the initial data. Exact answers cost a
// join each, so only the first truthSample distinct SQL texts are judged.
func (e *env) utility(p *pass) (relErrs []float64, within, judged int) {
	if len(p.latencies(classAppend)) > 0 {
		p = e.warm
	}
	tw := newTwin(e.data)
	for _, s := range p.samples {
		r := &p.reqs[s.idx]
		if r.class != classFresh || !s.expected(r) {
			continue
		}
		if !tw.known(r.sql) && tw.size() >= truthSample {
			continue
		}
		// The theorem presumes DS_Q(I) ≤ GS_Q; a release outside it is not judged.
		truth, tauStar, err := tw.truth(r.sql, r.primary)
		if err != nil || truth == 0 || tauStar > e.data.gsq {
			continue
		}
		judged++
		diff := math.Abs(s.resp.Estimate - truth)
		relErrs = append(relErrs, diff/math.Abs(truth))
		if diff <= r2t.ErrorBound(r2t.Options{Epsilon: r.eps, GSQ: e.data.gsq, Beta: 0.1}, tauStar) {
			within++
		}
	}
	return relErrs, within, judged
}

// releaseDigest hashes the pass's released estimates in request order. With
// one client the requests reach the server's seeded noise source in that
// order, so the same seed must reproduce the digest bit for bit.
func releaseDigest(p *pass) string {
	byIdx := append([]sample(nil), p.samples...)
	sort.Slice(byIdx, func(i, j int) bool { return byIdx[i].idx < byIdx[j].idx })
	h := sha256.New()
	for _, s := range byIdx {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.resp.Estimate))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
