package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"r2t/internal/server"
)

// newHTTPClient returns the one client a run drives all its traffic through:
// at most conns connections per host, kept alive, so the load never comes
// from more client connections than the workload declares.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// response is the union of the fields the bench reads from r2td's bodies.
type response struct {
	Estimate       float64 `json:"estimate"`
	EpsilonCharged float64 `json:"epsilon_charged"`
	Cached         bool    `json:"cached"`
	Appended       int     `json:"appended"`
	TotalRows      int     `json:"total_rows"`
	Error          string  `json:"error"`
}

// sample is one finished request of a pass.
type sample struct {
	idx        int // index into the pass's request list
	start, end time.Duration
	code       int
	resp       response
	err        error // transport failure
}

func (s sample) latency() time.Duration { return s.end - s.start }

// do issues one request and decodes its response.
func do(client *http.Client, url string, r *request) (int, response, error) {
	req, err := http.NewRequest(http.MethodPost, url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.appendID != "" {
		req.Header.Set(server.AppendIDHeader, r.appendID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, response{}, err
	}
	defer resp.Body.Close()
	var out response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding %s response: %w", r.path, err)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, out, nil
}

// expected reports whether the response is the one the request's class calls
// for: the right status, and for queries the right cached flag and charge.
func (s sample) expected(r *request) bool {
	if s.err != nil || s.code != r.wantCode {
		return false
	}
	switch r.class {
	case classFresh:
		return !s.resp.Cached && s.resp.EpsilonCharged == r.eps
	case classReplay:
		return s.resp.Cached && s.resp.EpsilonCharged == 0
	case classAppend:
		return s.resp.Appended == len(r.rows)
	}
	return true // rejects: the status is the whole expectation
}

// pass is one closed-loop drive of a request list.
type pass struct {
	reqs    []request
	samples []sample // completion order
	wall    time.Duration
}

// runPass drives reqs against url from `clients` closed-loop clients: each
// sends its next request only when the previous one has been answered, taking
// the next unclaimed index. The list is the unit of work — a pass normally
// runs all of it — and limit is only a backstop: once it has elapsed no new
// block of `stride` requests is started, so a regressed commit cannot run
// away with the driver's time budget.
func runPass(client *http.Client, url string, reqs []request, clients, stride int, limit time.Duration) *pass {
	p := &pass{reqs: reqs}
	perClient := make([][]sample, clients)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if i%stride == 0 && time.Since(begin) > limit {
					stop.Store(true)
				}
				if stop.Load() {
					return
				}
				s := sample{idx: i, start: time.Since(begin)}
				s.code, s.resp, s.err = do(client, url, &reqs[i])
				s.end = time.Since(begin)
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(begin)
	for _, ss := range perClient {
		p.samples = append(p.samples, ss...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	return p
}

// failed counts responses that were not the one their class calls for.
func (p *pass) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.expected(&p.reqs[s.idx]) {
			n++
		}
	}
	return n
}

// throughputSegments is how many consecutive slices of the request list
// throughput is the median over.
const throughputSegments = 12

// throughput is expected-status responses per second of measured wall time:
// the median over consecutive slices of the list (whole blocks of stride), so
// that one stalled slice — a collection, an LP race with an unlucky draw —
// does not set the number. A slice's wall runs from its first request's send
// to its last response.
func (p *pass) throughput(stride int) float64 {
	blocks := (len(p.reqs) + stride - 1) / stride
	per := (blocks + throughputSegments - 1) / throughputSegments * stride
	type seg struct {
		ok         int
		begin, end time.Duration
	}
	segs := map[int]*seg{}
	for _, s := range p.samples {
		g := segs[s.idx/per]
		if g == nil {
			g = &seg{begin: s.start}
			segs[s.idx/per] = g
		}
		g.begin, g.end = min(g.begin, s.start), max(g.end, s.end)
		if s.expected(&p.reqs[s.idx]) {
			g.ok++
		}
	}
	var rates []float64
	for _, g := range segs {
		rates = append(rates, float64(g.ok)/(g.end-g.begin).Seconds())
	}
	return median(rates)
}

// latencies returns the sorted latencies (ms) of the class's expected responses.
func (p *pass) latencies(class string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if r := &p.reqs[s.idx]; r.class == class && s.expected(r) {
			out = append(out, float64(s.latency())/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// turnP50 is the class's typical latency (ms) over a mix: the median over
// the list's turns of `stride` requests (the ten TPC-H queries, the
// 20-request serve mix) of each turn's median. A turn's median sits at the
// same place in the mix every time; the plain median of a multi-modal mix
// instead lands on the edge of one mode, and which edge is chance. With
// stride 1 the two are the same number.
func (p *pass) turnP50(class string, stride int) float64 {
	turns := map[int][]float64{}
	for _, s := range p.samples {
		if r := &p.reqs[s.idx]; r.class == class && s.expected(r) {
			turns[s.idx/stride] = append(turns[s.idx/stride], float64(s.latency())/float64(time.Millisecond))
		}
	}
	medians := make([]float64, 0, len(turns))
	for _, t := range turns {
		medians = append(medians, median(t))
	}
	return median(medians)
}

// charged sums the ε of every acknowledged charge, in completion order.
func (p *pass) charged() float64 {
	sum := 0.0
	for _, s := range p.samples {
		if s.code == http.StatusOK {
			sum += s.resp.EpsilonCharged
		}
	}
	return sum
}

// appendedRows counts the rows of every acknowledged append to rel.
func (p *pass) appendedRows(rel string) int {
	n := 0
	for _, s := range p.samples {
		if s.code == http.StatusOK && p.reqs[s.idx].relation == rel {
			n += s.resp.Appended
		}
	}
	return n
}

// quantile returns the q-quantile of sorted values (nearest rank), NaN if empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
