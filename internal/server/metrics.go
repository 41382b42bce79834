package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"r2t"
	"r2t/internal/wal"
)

// Request outcome labels for the r2td_queries_total counter. cache_hit
// covers both map hits and coalesced followers; ok means a fresh mechanism
// run released an answer (and charged ε).
const (
	statusOK          = "ok"
	statusCacheHit    = "cache_hit"
	statusInvalid     = "invalid"          // 400: bad request, options, or SQL
	statusNotFound    = "not_found"        // 404: unknown dataset
	statusRejected    = "rejected"         // 429: worker pool saturated
	statusExhausted   = "budget_exhausted" // 402: ε budget cannot cover the charge
	statusTimeout     = "timeout"          // 504: deadline expired
	statusError       = "error"            // 500: mechanism failure after admission
	statusUnavailable = "unavailable"      // 503: ledger poisoned, charges cannot land
	statusRedirect    = "redirect"         // 409: charge sent to a replica (or a fenced primary)

	// Write-path (/v1/append) outcomes. These appear only in the operator
	// request log, never in r2td_queries_total: the query counter tracks the
	// DP release stream, and the segstore WAL counters track writes.
	statusAppend   = "append"
	statusReadOnly = "read_only" // 409: append to a dataset with no durable dir
)

// metrics is the process-wide counter set behind /metrics, exported in the
// Prometheus text exposition format (hand-rolled — the repo is stdlib-only).
// Budget gauges are not stored here; they are read live from the registry at
// scrape time so they can never drift from the ledger-backed truth.
type metrics struct {
	mu      sync.Mutex
	started time.Time
	queries map[statusKey]int64
	latency map[string]*latencySummary // per dataset, all outcomes
	stages  map[stageKey]*stageAgg     // per (dataset, pipeline stage), fresh runs only
	mechs   map[mechKey]int64          // per (dataset, mechanism), fresh releases only
	panics  int64                      // panics contained by the query path's recover
	deduped int64                      // appends replayed from the idempotency window
	subqs   int64                      // shard-side sub-queries served over the repl plane
}

type statusKey struct{ dataset, status string }
type stageKey struct{ dataset, stage string }
type mechKey struct{ dataset, mech string }

// stageAgg accumulates one (dataset, stage) series: total wall time and the
// number of timed intervals that produced it.
type stageAgg struct {
	seconds float64
	count   int64
}

func newMetrics() *metrics {
	return &metrics{
		started: time.Now(),
		queries: make(map[statusKey]int64),
		latency: make(map[string]*latencySummary),
		stages:  make(map[stageKey]*stageAgg),
		mechs:   make(map[mechKey]int64),
	}
}

// mechSelected counts one fresh release by the backend that produced it. The
// selection is a data-independent function of the query and its parameters
// (DESIGN.md §15), so the counter reveals only query-stream shape.
func (m *metrics) mechSelected(dataset, mech string) {
	if mech == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mechs[mechKey{dataset, mech}]++
}

// escapeLabel renders s as a Prometheus label value. The text exposition
// format permits exactly three escapes — \\, \" and \n; fmt's %q emits Go
// escapes (\t, \x00, \u2028, …) that exposition parsers reject, so a dataset
// name containing a control character used to corrupt the whole scrape.
func escapeLabel(s string) string {
	return labelEscaper.Replace(s)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// panicRecovered counts one panic contained by the query path.
func (m *metrics) panicRecovered() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// appendDeduped counts one append replayed from the idempotency window.
func (m *metrics) appendDeduped() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deduped++
}

// subQueryServed counts one uncharged sub-query this shard evaluated for a
// router (a routed query's partial-aggregate half, DESIGN.md §16).
func (m *metrics) subQueryServed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subqs++
}

// observe records one finished request.
func (m *metrics) observe(dataset, status string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries[statusKey{dataset, status}]++
	s := m.latency[dataset]
	if s == nil {
		s = &latencySummary{}
		m.latency[dataset] = s
	}
	s.add(d)
}

// observeStages folds one fresh run's stage profile into the per-stage
// aggregates. Only aggregates ever leave the process (DESIGN.md §11):
// per-request profiles go to the operator request log, never to analysts.
func (m *metrics) observeStages(dataset string, prof *r2t.Profile) {
	if prof == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range prof.Stages {
		k := stageKey{dataset, st.Stage}
		a := m.stages[k]
		if a == nil {
			a = &stageAgg{}
			m.stages[k] = a
		}
		a.seconds += st.Duration.Seconds()
		a.count += st.Count
	}
}

// latencySummary keeps exact count/sum/max plus a sliding window of the most
// recent observations for quantiles — bounded memory, no dependency, and
// accurate over the traffic that matters (the recent past).
type latencySummary struct {
	count int64
	sum   time.Duration
	max   time.Duration
	ring  [512]float64 // seconds
	n     int          // filled slots
	next  int
}

func (s *latencySummary) add(d time.Duration) {
	s.count++
	s.sum += d
	if d > s.max {
		s.max = d
	}
	s.ring[s.next] = d.Seconds()
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// quantiles returns the q-quantiles over the window, one per requested q.
func (s *latencySummary) quantiles(qs ...float64) []float64 {
	window := make([]float64, s.n)
	copy(window, s.ring[:s.n])
	sort.Float64s(window)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if s.n == 0 {
			continue
		}
		idx := int(q * float64(s.n-1))
		out[i] = window[idx]
	}
	return out
}

// writeTo renders the full exposition: query counts by outcome, cache
// occupancy and hit rate, per-dataset ε accounting (live from the budgets),
// and latency summaries.
func (m *metrics) writeTo(w io.Writer, reg *Registry, cache *answerCache, ledger *Ledger, repl *replState) {
	// Read the ledger gauge before taking m.mu (independent locks, and the
	// ledger must never wait on a metrics scrape).
	poisoned := 0
	var lst wal.Stats
	if ledger != nil {
		if ledger.Poisoned() {
			poisoned = 1
		}
		lst = ledger.Stats()
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP r2td_uptime_seconds Time since the server started.\n# TYPE r2td_uptime_seconds gauge\n")
	fmt.Fprintf(w, "r2td_uptime_seconds %g\n", time.Since(m.started).Seconds())

	fmt.Fprintf(w, "# HELP r2td_ledger_poisoned Whether the budget ledger is fail-closed after a write of unknown durability (1 = rejecting all charges until reopen).\n# TYPE r2td_ledger_poisoned gauge\n")
	fmt.Fprintf(w, "r2td_ledger_poisoned %d\n", poisoned)
	// The ledger is the same durable log as the table WALs below, and
	// exports the same counters.
	fmt.Fprintf(w, "# HELP r2td_ledger_appends_total Records durably appended to the budget ledger since startup (charges, epoch records, probes, replicated records).\n# TYPE r2td_ledger_appends_total counter\nr2td_ledger_appends_total %d\n", lst.Appends)
	fmt.Fprintf(w, "# HELP r2td_ledger_fsyncs_total fsync calls on the budget ledger.\n# TYPE r2td_ledger_fsyncs_total counter\nr2td_ledger_fsyncs_total %d\n", lst.Fsyncs)
	fmt.Fprintf(w, "# HELP r2td_ledger_fsync_seconds_total Cumulative wall time in budget-ledger fsyncs.\n# TYPE r2td_ledger_fsync_seconds_total counter\nr2td_ledger_fsync_seconds_total %g\n", lst.FsyncSeconds)
	fmt.Fprintf(w, "# HELP r2td_ledger_replay_records_total Ledger records replayed at startup.\n# TYPE r2td_ledger_replay_records_total counter\nr2td_ledger_replay_records_total %d\n", lst.ReplayedRecs)
	fmt.Fprintf(w, "# HELP r2td_ledger_torn_bytes_total Torn-tail bytes truncated from the ledger during replay (a crash mid-append, repaired).\n# TYPE r2td_ledger_torn_bytes_total counter\nr2td_ledger_torn_bytes_total %d\n", lst.TornBytes)

	writeReplMetrics(w, repl)

	fmt.Fprintf(w, "# HELP r2td_panics_recovered_total Panics contained by the query path (each left its ε conservatively charged).\n# TYPE r2td_panics_recovered_total counter\n")
	fmt.Fprintf(w, "r2td_panics_recovered_total %d\n", m.panics)

	fmt.Fprintf(w, "# HELP r2td_append_dedup_hits_total Appends replayed from the X-R2T-Append-Id idempotency window instead of being applied again.\n# TYPE r2td_append_dedup_hits_total counter\n")
	fmt.Fprintf(w, "r2td_append_dedup_hits_total %d\n", m.deduped)

	if m.subqs > 0 {
		fmt.Fprintf(w, "# HELP r2td_shard_subqueries_served_total Uncharged sub-queries this shard evaluated for a router (DESIGN.md §16).\n# TYPE r2td_shard_subqueries_served_total counter\n")
		fmt.Fprintf(w, "r2td_shard_subqueries_served_total %d\n", m.subqs)
	}

	// Router-side scatter/gather traffic, read live from each sharded
	// dataset's pool at scrape time (like the budget gauges). Absent on
	// non-router nodes, so the section doubles as a "this node routes" marker.
	sharded := make([]string, 0, len(reg.datasets))
	for _, name := range reg.Names() {
		if reg.Get(name).Pool != nil {
			sharded = append(sharded, name)
		}
	}
	if len(sharded) > 0 {
		fmt.Fprintf(w, "# HELP r2td_shards Shard nodes in the dataset's shard map.\n# TYPE r2td_shards gauge\n")
		fmt.Fprintf(w, "# HELP r2td_shard_scatters_total Routed queries scattered to the dataset's shards.\n# TYPE r2td_shard_scatters_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_shard_scatter_failures_total Scatters that failed after per-shard retries (each left its ε charged, answered 503).\n# TYPE r2td_shard_scatter_failures_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_shard_calls_total Per-shard sub-query calls, including hedged and retried attempts' winners.\n# TYPE r2td_shard_calls_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_shard_call_failures_total Sub-query calls that exhausted both attempts.\n# TYPE r2td_shard_call_failures_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_shard_hedges_total Hedged second attempts launched against slow shards (safe: sub-queries are uncharged and read-only).\n# TYPE r2td_shard_hedges_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_shard_conn_reuses_total Sub-query calls served over a pooled shard connection.\n# TYPE r2td_shard_conn_reuses_total counter\n")
		for _, name := range sharded {
			ds := reg.Get(name)
			st := ds.Pool.Stats()
			esc := escapeLabel(name)
			fmt.Fprintf(w, "r2td_shards{dataset=\"%s\"} %d\n", esc, ds.Pool.Len())
			fmt.Fprintf(w, "r2td_shard_scatters_total{dataset=\"%s\"} %d\n", esc, st.Scatters)
			fmt.Fprintf(w, "r2td_shard_scatter_failures_total{dataset=\"%s\"} %d\n", esc, st.ScatterFailures)
			fmt.Fprintf(w, "r2td_shard_calls_total{dataset=\"%s\"} %d\n", esc, st.Calls)
			fmt.Fprintf(w, "r2td_shard_call_failures_total{dataset=\"%s\"} %d\n", esc, st.CallFailures)
			fmt.Fprintf(w, "r2td_shard_hedges_total{dataset=\"%s\"} %d\n", esc, st.Hedges)
			fmt.Fprintf(w, "r2td_shard_conn_reuses_total{dataset=\"%s\"} %d\n", esc, st.Reuses)
		}
	}

	fmt.Fprintf(w, "# HELP r2td_queries_total Finished query requests by dataset and outcome.\n# TYPE r2td_queries_total counter\n")
	keys := make([]statusKey, 0, len(m.queries))
	for k := range m.queries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dataset != keys[j].dataset {
			return keys[i].dataset < keys[j].dataset
		}
		return keys[i].status < keys[j].status
	})
	hits := make(map[string]int64)
	releases := make(map[string]int64)
	for _, k := range keys {
		fmt.Fprintf(w, "r2td_queries_total{dataset=\"%s\",status=\"%s\"} %d\n", escapeLabel(k.dataset), escapeLabel(k.status), m.queries[k])
		switch k.status {
		case statusCacheHit:
			hits[k.dataset] += m.queries[k]
		case statusOK:
			releases[k.dataset] += m.queries[k]
		}
	}

	fmt.Fprintf(w, "# HELP r2td_cache_answers Recorded releases in the free-replay cache.\n# TYPE r2td_cache_answers gauge\n")
	ast := cache.Stats()
	fmt.Fprintf(w, "r2td_cache_answers %d\n", ast.Entries)
	fmt.Fprintf(w, "# HELP r2td_answer_cache_evictions_total Recorded releases dropped from the free-replay cache (LRU capacity); each drop means a future identical query re-runs the mechanism and charges ε again.\n# TYPE r2td_answer_cache_evictions_total counter\n")
	fmt.Fprintf(w, "r2td_answer_cache_evictions_total %d\n", ast.Evictions)
	fmt.Fprintf(w, "# HELP r2td_cache_hit_ratio Fraction of answered queries served by free replay.\n# TYPE r2td_cache_hit_ratio gauge\n")
	for _, name := range reg.Names() {
		if answered := hits[name] + releases[name]; answered > 0 {
			fmt.Fprintf(w, "r2td_cache_hit_ratio{dataset=\"%s\"} %g\n", escapeLabel(name), float64(hits[name])/float64(answered))
		}
	}

	// Engine-side cache gauges, read live from each dataset's DB at scrape
	// time (like the budget gauges). The join-core cache shares probe passes
	// across queries (DESIGN.md §12); the index cache shares build-side hash
	// indexes across probe passes. Both are pre-noise, engine-internal
	// structures — the counters reveal only query-stream shape, not data.
	fmt.Fprintf(w, "# HELP r2td_join_core_cache_hits_total Probe passes served from the shared join-core cache.\n# TYPE r2td_join_core_cache_hits_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_join_core_cache_misses_total Probe passes run fresh (cold, stale, or sharing disabled).\n# TYPE r2td_join_core_cache_misses_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_join_core_cache_coalesced_total Queries that waited on another query's in-flight probe pass instead of running their own.\n# TYPE r2td_join_core_cache_coalesced_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_join_core_cache_evictions_total Join cores dropped by the LRU cap.\n# TYPE r2td_join_core_cache_evictions_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_join_core_cache_stale_total Cached join cores discarded because a table version moved.\n# TYPE r2td_join_core_cache_stale_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_join_core_cache_entries Join cores currently cached.\n# TYPE r2td_join_core_cache_entries gauge\n")
	for _, name := range reg.Names() {
		st := reg.Get(name).DB.JoinShareStats()
		esc := escapeLabel(name)
		fmt.Fprintf(w, "r2td_join_core_cache_hits_total{dataset=\"%s\"} %d\n", esc, st.Hits)
		fmt.Fprintf(w, "r2td_join_core_cache_misses_total{dataset=\"%s\"} %d\n", esc, st.Misses)
		fmt.Fprintf(w, "r2td_join_core_cache_coalesced_total{dataset=\"%s\"} %d\n", esc, st.Coalesced)
		fmt.Fprintf(w, "r2td_join_core_cache_evictions_total{dataset=\"%s\"} %d\n", esc, st.Evictions)
		fmt.Fprintf(w, "r2td_join_core_cache_stale_total{dataset=\"%s\"} %d\n", esc, st.Invalidations)
		fmt.Fprintf(w, "r2td_join_core_cache_entries{dataset=\"%s\"} %d\n", esc, st.Entries)
	}

	fmt.Fprintf(w, "# HELP r2td_index_cache_hits_total Build-side index lookups served from the per-table index cache.\n# TYPE r2td_index_cache_hits_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_index_cache_misses_total Build-side indexes built fresh.\n# TYPE r2td_index_cache_misses_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_index_cache_evictions_total Indexes dropped by the per-table LRU cap.\n# TYPE r2td_index_cache_evictions_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_index_cache_invalidations_total Indexes dropped on append because they could not be extended in place.\n# TYPE r2td_index_cache_invalidations_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_index_cache_extensions_total Indexes extended in place with only the appended delta rows (O(delta), cache entry survives the write).\n# TYPE r2td_index_cache_extensions_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_index_cache_rebuilds_total Extensions that chose a full rebuild because the accumulated delta reached the base size.\n# TYPE r2td_index_cache_rebuilds_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_index_cache_entries Build-side indexes currently cached.\n# TYPE r2td_index_cache_entries gauge\n")
	for _, name := range reg.Names() {
		st := reg.Get(name).DB.Instance().JoinCacheStats()
		esc := escapeLabel(name)
		// A lookup that waited on another query's build was served by the
		// cache, not by a build of its own.
		fmt.Fprintf(w, "r2td_index_cache_hits_total{dataset=\"%s\"} %d\n", esc, st.Hits+st.Coalesced)
		fmt.Fprintf(w, "r2td_index_cache_misses_total{dataset=\"%s\"} %d\n", esc, st.Misses)
		fmt.Fprintf(w, "r2td_index_cache_evictions_total{dataset=\"%s\"} %d\n", esc, st.Evictions)
		fmt.Fprintf(w, "r2td_index_cache_invalidations_total{dataset=\"%s\"} %d\n", esc, st.Invalidations)
		fmt.Fprintf(w, "r2td_index_cache_extensions_total{dataset=\"%s\"} %d\n", esc, st.Extensions)
		fmt.Fprintf(w, "r2td_index_cache_rebuilds_total{dataset=\"%s\"} %d\n", esc, st.Rebuilds)
		fmt.Fprintf(w, "r2td_index_cache_entries{dataset=\"%s\"} %d\n", esc, st.Entries)
	}

	// Durable-store gauges and counters, read live from each WAL-backed
	// dataset's segstore at scrape time. Absent entirely for in-memory
	// datasets, so the exposition doubles as a durability inventory.
	durable := make([]string, 0, len(reg.datasets))
	for _, name := range reg.Names() {
		if reg.Get(name).Store != nil {
			durable = append(durable, name)
		}
	}
	if len(durable) > 0 {
		fmt.Fprintf(w, "# HELP r2td_wal_appends_total Durable append batches fsynced to table WALs.\n# TYPE r2td_wal_appends_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_wal_appended_rows_total Rows made durable through table WALs since startup.\n# TYPE r2td_wal_appended_rows_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_wal_fsyncs_total fsync calls on table WALs.\n# TYPE r2td_wal_fsyncs_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_wal_fsync_seconds_total Cumulative wall time in table-WAL fsyncs.\n# TYPE r2td_wal_fsync_seconds_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_wal_replay_records_total WAL records replayed at startup.\n# TYPE r2td_wal_replay_records_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_wal_replay_rows_total Rows recovered from table WALs at startup.\n# TYPE r2td_wal_replay_rows_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_wal_torn_bytes_total Torn-tail bytes truncated during replay (a crash mid-append, repaired).\n# TYPE r2td_wal_torn_bytes_total counter\n")
		fmt.Fprintf(w, "# HELP r2td_segstore_segments Sealed immutable segments across a dataset's WALs.\n# TYPE r2td_segstore_segments gauge\n")
		fmt.Fprintf(w, "# HELP r2td_segstore_segment_rows Rows held in sealed segments.\n# TYPE r2td_segstore_segment_rows gauge\n")
		fmt.Fprintf(w, "# HELP r2td_segstore_poisoned Whether the dataset's store is fail-closed after a write of unknown durability (1 = rejecting all appends until restart).\n# TYPE r2td_segstore_poisoned gauge\n")
		for _, name := range durable {
			st := reg.Get(name).Store.Stats()
			esc := escapeLabel(name)
			fmt.Fprintf(w, "r2td_wal_appends_total{dataset=\"%s\"} %d\n", esc, st.Appends)
			fmt.Fprintf(w, "r2td_wal_appended_rows_total{dataset=\"%s\"} %d\n", esc, st.AppendedRows)
			fmt.Fprintf(w, "r2td_wal_fsyncs_total{dataset=\"%s\"} %d\n", esc, st.Fsyncs)
			fmt.Fprintf(w, "r2td_wal_fsync_seconds_total{dataset=\"%s\"} %g\n", esc, st.FsyncSeconds)
			fmt.Fprintf(w, "r2td_wal_replay_records_total{dataset=\"%s\"} %d\n", esc, st.ReplayedRecs)
			fmt.Fprintf(w, "r2td_wal_replay_rows_total{dataset=\"%s\"} %d\n", esc, st.ReplayedRows)
			fmt.Fprintf(w, "r2td_wal_torn_bytes_total{dataset=\"%s\"} %d\n", esc, st.TornBytes)
			fmt.Fprintf(w, "r2td_segstore_segments{dataset=\"%s\"} %d\n", esc, st.Segments)
			fmt.Fprintf(w, "r2td_segstore_segment_rows{dataset=\"%s\"} %d\n", esc, st.SegmentRows)
			p := 0
			if st.PoisonedSince {
				p = 1
			}
			fmt.Fprintf(w, "r2td_segstore_poisoned{dataset=\"%s\"} %d\n", esc, p)
		}
	}

	fmt.Fprintf(w, "# HELP r2td_epsilon_total Configured ε budget per dataset.\n# TYPE r2td_epsilon_total gauge\n")
	for _, name := range reg.Names() {
		fmt.Fprintf(w, "r2td_epsilon_total{dataset=\"%s\"} %g\n", escapeLabel(name), reg.Get(name).Budget.Total())
	}
	fmt.Fprintf(w, "# HELP r2td_epsilon_spent Cumulative ε charged per dataset (survives restarts via the ledger).\n# TYPE r2td_epsilon_spent gauge\n")
	fmt.Fprintf(w, "# HELP r2td_epsilon_remaining Unspent ε per dataset.\n# TYPE r2td_epsilon_remaining gauge\n")
	for _, name := range reg.Names() {
		spent, remaining := reg.Get(name).Budget.Balance()
		fmt.Fprintf(w, "r2td_epsilon_spent{dataset=\"%s\"} %g\n", escapeLabel(name), spent)
		fmt.Fprintf(w, "r2td_epsilon_remaining{dataset=\"%s\"} %g\n", escapeLabel(name), remaining)
	}

	fmt.Fprintf(w, "# HELP r2td_mech_selected_total Fresh releases by the mechanism backend that produced them (the selection is a data-independent function of the query — DESIGN.md §15).\n# TYPE r2td_mech_selected_total counter\n")
	mkeys := make([]mechKey, 0, len(m.mechs))
	for k := range m.mechs {
		mkeys = append(mkeys, k)
	}
	sort.Slice(mkeys, func(i, j int) bool {
		if mkeys[i].dataset != mkeys[j].dataset {
			return mkeys[i].dataset < mkeys[j].dataset
		}
		return mkeys[i].mech < mkeys[j].mech
	})
	for _, k := range mkeys {
		fmt.Fprintf(w, "r2td_mech_selected_total{dataset=\"%s\",mech=\"%s\"} %d\n", escapeLabel(k.dataset), escapeLabel(k.mech), m.mechs[k])
	}

	fmt.Fprintf(w, "# HELP r2td_stage_seconds_total Cumulative wall time per pipeline stage, fresh mechanism runs only (aggregate operator-side diagnostic — DESIGN.md §11).\n# TYPE r2td_stage_seconds_total counter\n")
	fmt.Fprintf(w, "# HELP r2td_stage_count_total Timed intervals behind r2td_stage_seconds_total.\n# TYPE r2td_stage_count_total counter\n")
	skeys := make([]stageKey, 0, len(m.stages))
	for k := range m.stages {
		skeys = append(skeys, k)
	}
	sort.Slice(skeys, func(i, j int) bool {
		if skeys[i].dataset != skeys[j].dataset {
			return skeys[i].dataset < skeys[j].dataset
		}
		return skeys[i].stage < skeys[j].stage
	})
	for _, k := range skeys {
		a := m.stages[k]
		fmt.Fprintf(w, "r2td_stage_seconds_total{dataset=\"%s\",stage=\"%s\"} %g\n", escapeLabel(k.dataset), escapeLabel(k.stage), a.seconds)
		fmt.Fprintf(w, "r2td_stage_count_total{dataset=\"%s\",stage=\"%s\"} %d\n", escapeLabel(k.dataset), escapeLabel(k.stage), a.count)
	}

	writeRequestSeconds(w, m)
}

// writeReplMetrics renders the replication health section. Standalone servers
// (no hub, no client, never part of a cluster) emit nothing, so the section
// doubles as a "this node replicates" marker.
func writeReplMetrics(w io.Writer, repl *replState) {
	if repl == nil {
		return
	}
	repl.mu.Lock()
	hub, client := repl.hub, repl.client
	repl.mu.Unlock()
	if hub == nil && client == nil && repl.epoch.Load() == 0 {
		return
	}
	role := RolePrimary
	if repl.isReplica() {
		role = RoleReplica
	}
	fenced := 0
	if repl.fenced.Load() {
		fenced = 1
	}
	fmt.Fprintf(w, "# HELP r2td_repl_role Replication role of this node (exactly one label is 1).\n# TYPE r2td_repl_role gauge\n")
	fmt.Fprintf(w, "r2td_repl_role{role=\"%s\"} 1\n", role)
	fmt.Fprintf(w, "# HELP r2td_repl_epoch Highest fencing epoch this node has observed (its own reign, when primary).\n# TYPE r2td_repl_epoch gauge\n")
	fmt.Fprintf(w, "r2td_repl_epoch %d\n", repl.epoch.Load())
	fmt.Fprintf(w, "# HELP r2td_repl_fenced Whether this primary refuses charges because a newer epoch exists elsewhere.\n# TYPE r2td_repl_fenced gauge\n")
	fmt.Fprintf(w, "r2td_repl_fenced %d\n", fenced)
	if hub != nil {
		fmt.Fprintf(w, "# HELP r2td_repl_attached_replicas Replica sessions currently attached to this primary.\n# TYPE r2td_repl_attached_replicas gauge\n")
		fmt.Fprintf(w, "r2td_repl_attached_replicas %d\n", hub.Attached())
		fmt.Fprintf(w, "# HELP r2td_repl_disconnects_total Replica sessions lost since startup (errors, timeouts, queue overflow).\n# TYPE r2td_repl_disconnects_total counter\n")
		fmt.Fprintf(w, "r2td_repl_disconnects_total %d\n", hub.Disconnects())
		fmt.Fprintf(w, "# HELP r2td_repl_lag_records Ledger records streamed to a replica but not yet acknowledged by it.\n# TYPE r2td_repl_lag_records gauge\n")
		for _, p := range hub.Peers() {
			lag := uint64(0)
			if p.SentSeq > p.AckedSeq {
				lag = p.SentSeq - p.AckedSeq
			}
			fmt.Fprintf(w, "r2td_repl_lag_records{peer=\"%s\"} %d\n", escapeLabel(p.Node), lag)
		}
	}
	if client != nil {
		st := client.Status()
		connected, caughtUp := 0, 0
		if st.Connected {
			connected = 1
		}
		if st.CaughtUp {
			caughtUp = 1
		}
		fmt.Fprintf(w, "# HELP r2td_repl_connected Whether the replica's stream to its primary is up.\n# TYPE r2td_repl_connected gauge\n")
		fmt.Fprintf(w, "r2td_repl_connected %d\n", connected)
		fmt.Fprintf(w, "# HELP r2td_repl_caught_up Whether the replica has applied the ledger prefix its last handshake promised (the readiness condition).\n# TYPE r2td_repl_caught_up gauge\n")
		fmt.Fprintf(w, "r2td_repl_caught_up %d\n", caughtUp)
		fmt.Fprintf(w, "# HELP r2td_repl_disconnects_total Times the replica lost its stream to the primary since startup.\n# TYPE r2td_repl_disconnects_total counter\n")
		fmt.Fprintf(w, "r2td_repl_disconnects_total %d\n", st.Disconnects)
		fmt.Fprintf(w, "# HELP r2td_repl_lag_records Ledger records the replica trails its primary by, per the primary's latest advertisement.\n# TYPE r2td_repl_lag_records gauge\n")
		fmt.Fprintf(w, "r2td_repl_lag_records %d\n", st.LagRecords())
	}
}

// writeRequestSeconds renders the per-dataset latency summaries. Caller holds
// m.mu.
func writeRequestSeconds(w io.Writer, m *metrics) {
	fmt.Fprintf(w, "# HELP r2td_request_seconds Request latency summary per dataset.\n# TYPE r2td_request_seconds summary\n")
	datasets := make([]string, 0, len(m.latency))
	for name := range m.latency {
		datasets = append(datasets, name)
	}
	sort.Strings(datasets)
	for _, name := range datasets {
		s := m.latency[name]
		qv := s.quantiles(0.5, 0.95, 0.99)
		esc := escapeLabel(name)
		fmt.Fprintf(w, "r2td_request_seconds{dataset=\"%s\",quantile=\"0.5\"} %g\n", esc, qv[0])
		fmt.Fprintf(w, "r2td_request_seconds{dataset=\"%s\",quantile=\"0.95\"} %g\n", esc, qv[1])
		fmt.Fprintf(w, "r2td_request_seconds{dataset=\"%s\",quantile=\"0.99\"} %g\n", esc, qv[2])
		fmt.Fprintf(w, "r2td_request_seconds_sum{dataset=\"%s\"} %g\n", esc, s.sum.Seconds())
		fmt.Fprintf(w, "r2td_request_seconds_count{dataset=\"%s\"} %d\n", esc, s.count)
		fmt.Fprintf(w, "r2td_request_seconds_max{dataset=\"%s\"} %g\n", esc, s.max.Seconds())
	}
}
