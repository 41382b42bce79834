// Package obs is the stage-level profiler for the R2T pipeline: wall-clock
// durations per pipeline stage (parse, plan, join execution, truncation
// build, LP solving, noise) plus hot-path counters (simplex iterations and
// pivots, grid-solver redundancy eliminations, early-stop prunes and dual
// steps, executor row traffic, build-index cache hits, arena bytes).
//
// The design follows internal/fault's cheap-disabled-path discipline: every
// Recorder method is safe — and allocation-free — on a nil receiver, so the
// pipeline threads a single *Recorder pointer everywhere and passes nil when
// profiling is off. The disabled path is one nil check per call site; the
// named gate in scripts/check.sh (TestRecorderDisabledAllocFree,
// BenchmarkRecorderDisabled) asserts it allocates nothing.
//
// Profiling is pure observation. A Recorder only ever accumulates into
// atomics; it never feeds anything back into the computation, so enabling it
// cannot change a released estimate (the PR 4 bit-equality gates run with
// profiling on to enforce exactly that).
//
// Privacy posture: stage durations and counters are data-dependent and
// therefore NON-PRIVATE diagnostics, exactly like Answer.TrueAnswer. They are
// for the data curator and the service operator; they must never cross a
// privacy boundary alongside a release (DESIGN.md §11).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one timed section of the pipeline. Stages are disjoint
// wall-clock intervals within a single query evaluation, so their durations
// sum to (slightly less than) the end-to-end duration; concurrent work inside
// a stage (parallel probe chunks, race workers) is covered by the stage's
// wall-clock span, not double-counted.
type Stage int

// Pipeline stages, in pipeline order.
const (
	StageParse           Stage = iota // SQL text → AST
	StagePlan                         // AST → completed-join plan
	StageExec                         // join evaluation with provenance
	StageTruncationBuild              // occurrence form + LP structure build
	StageLPSolve                      // the R2T races (LP solves, dual bounds)
	StageNoise                        // Laplace draws
	NumStages
)

var stageNames = [NumStages]string{
	"parse", "plan", "exec", "truncation-build", "lp-solve", "noise",
}

// String returns the stage's stable label (used in metrics and logs).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Counter identifies one accumulated count.
type Counter int

// Pipeline counters.
const (
	CtrSimplexIters      Counter = iota // simplex iterations (pricing passes + flips + pivots)
	CtrSimplexPivots                    // basis-changing pivots only
	CtrLPComponents                     // independent LP blocks solved
	CtrRedundantSkips                   // τ-monotone redundancy eliminations (rows/components skipped)
	CtrEarlyStopPrune                   // races killed by a dual bound before an exact solve
	CtrDualSteps                        // subgradient steps the early-stop bounders took
	CtrExecRowsProbed                   // assignments entering a join step
	CtrExecRowsOut                      // assignments leaving a join step
	CtrIndexCacheHit                    // build-side index served from the table cache
	CtrIndexCacheMiss                   // build-side index built fresh
	CtrIndexCacheEvict                  // build-side index evicted by the per-table LRU cap
	CtrIndexExtendedHit                 // cache hit on an index incrementally extended across Appends (multi-part)
	CtrArenaBytes                       // bytes of row-arena slab allocated
	CtrJoinCoreHit                      // probe pass skipped: join core served from the DB cache
	CtrJoinCoreMiss                     // join core evaluated fresh (cold, stale, or sharing off)
	CtrPartitionFastPath                // truncators served by the closed-form partition path (no LP)
	CtrPartitionValues                  // Value(τ) evaluations answered by the partition path
	NumCounters
)

var counterNames = [NumCounters]string{
	"simplex_iters", "simplex_pivots", "lp_components", "grid_redundant_skips",
	"earlystop_prunes", "dual_steps", "exec_rows_probed", "exec_rows_emitted",
	"index_cache_hits", "index_cache_misses", "index_cache_evictions",
	"index_cache_extended_hits", "arena_bytes",
	"join_core_hits", "join_core_misses",
	"partition_fastpaths", "partition_values",
}

// String returns the counter's stable label.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// Recorder accumulates one evaluation's profile. All methods are safe for
// concurrent use (the executor's probe workers and core.Run's race workers
// record into one Recorder) and safe — without allocating — on a nil
// receiver, which is the disabled path.
type Recorder struct {
	stageNS [NumStages]atomic.Int64
	stageN  [NumStages]atomic.Int64
	ctr     [NumCounters]atomic.Int64
}

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe adds one timed interval to a stage.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil || s < 0 || s >= NumStages {
		return
	}
	r.stageNS[s].Add(int64(d))
	r.stageN[s].Add(1)
}

// Add accumulates n into a counter.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || c < 0 || c >= NumCounters {
		return
	}
	r.ctr[c].Add(n)
}

// nopStop is the shared no-op returned by Time on a nil recorder, so the
// disabled path never allocates a closure.
func nopStop() {}

// Time starts timing stage s and returns the function that stops the clock
// and records the interval. Typical use:
//
//	stop := rec.Time(obs.StageExec)
//	... work ...
//	stop()
func (r *Recorder) Time(s Stage) func() {
	if r == nil {
		return nopStop
	}
	start := time.Now()
	return func() { r.Observe(s, time.Since(start)) }
}

// StageTiming is one stage's accumulated wall-clock share.
type StageTiming struct {
	Stage    string        `json:"stage"`
	Duration time.Duration `json:"duration_ns"`
	Count    int64         `json:"count"` // timed intervals folded in
}

// Profile is an immutable snapshot of a Recorder — the non-private,
// curator-side attribution of where an evaluation spent its time.
type Profile struct {
	Stages   []StageTiming    `json:"stages"`   // pipeline order; zero-count stages omitted
	Counters map[string]int64 `json:"counters"` // nonzero counters by stable name
}

// Snapshot captures the recorder's current state. A nil recorder snapshots to
// nil, so callers can unconditionally assign the result.
func (r *Recorder) Snapshot() *Profile {
	if r == nil {
		return nil
	}
	p := &Profile{Counters: make(map[string]int64)}
	for s := Stage(0); s < NumStages; s++ {
		n := r.stageN[s].Load()
		if n == 0 {
			continue
		}
		p.Stages = append(p.Stages, StageTiming{
			Stage:    s.String(),
			Duration: time.Duration(r.stageNS[s].Load()),
			Count:    n,
		})
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := r.ctr[c].Load(); v != 0 {
			p.Counters[c.String()] = v
		}
	}
	return p
}

// StageTotal sums the profile's stage durations. Because stages are disjoint
// sections of one evaluation, the total is at most the end-to-end duration,
// with the gap being unattributed glue (diagnostics, plumbing).
func (p *Profile) StageTotal() time.Duration {
	var total time.Duration
	for _, st := range p.Stages {
		total += st.Duration
	}
	return total
}

// String renders the profile as an EXPLAIN ANALYZE-style report: one line per
// stage with its share of the stage total, then the nonzero counters.
func (p *Profile) String() string {
	var b strings.Builder
	total := p.StageTotal()
	b.WriteString("stage breakdown (NON-PRIVATE):\n")
	for _, st := range p.Stages {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Duration) / float64(total)
		}
		fmt.Fprintf(&b, "  %-17s %12s  %5.1f%%  (x%d)\n",
			st.Stage, st.Duration.Round(time.Microsecond), pct, st.Count)
	}
	fmt.Fprintf(&b, "  %-17s %12s\n", "total", total.Round(time.Microsecond))
	if len(p.Counters) > 0 {
		names := make([]string, 0, len(p.Counters))
		for name := range p.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("counters:\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-21s %d\n", name, p.Counters[name])
		}
	}
	return b.String()
}
