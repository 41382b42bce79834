// Command benchjson measures the repo's recorded perf trajectories with
// testing.Benchmark and writes them as JSON.
//
// BENCH_R2T.json covers the τ-grid workloads (the same ones BenchmarkR2TGrid
// runs): for every workload it times the cold per-race baseline (one full
// lp.Solve pipeline per τ, the pre-grid behaviour), the grid path
// (production: shared skeleton, cold per-τ simplex), and the warm-start mode,
// and verifies that cold and grid objectives agree bit-for-bit before
// recording anything.
//
// BENCH_EXEC.json covers the join executor (BenchmarkExecJoin /
// BenchmarkGroupBy): the legacy map-based serial executor vs the indexed
// slab-allocated one at one worker and at GOMAXPROCS, plus per-group joins vs
// the single-join group-by, plus the mixed-tenants join-sharing workloads (N
// aggregate variants over one join core: per-tenant probe passes vs one
// shared probe pass; must reach >= 1.5x). Results are compared row-for-row
// (ψ bits, resolved provenance refs, projection groups) — and, for
// mixed-tenants, released answer for released answer against seeded solo
// queries — before any number is recorded.
//
//	go run ./cmd/benchjson            # writes BENCH_R2T.json and BENCH_EXEC.json
//	go run ./cmd/benchjson -only exec -exec-o out.json -sf 0.1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"r2t"
	"r2t/internal/exec"
	"r2t/internal/experiments"
	"r2t/internal/obs"
)

type mode struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Speedup     float64 `json:"speedup_vs_cold,omitempty"`
}

type workloadResult struct {
	Workload    string          `json:"workload"`
	Races       int             `json:"races"`
	Occurrences int             `json:"occurrences"`
	BitwiseEq   bool            `json:"grid_bitwise_equals_cold"`
	Modes       map[string]mode `json:"modes"`
	// Profile is one instrumented grid solve's stage/counter breakdown
	// (simplex iterations and pivots, components, τ-monotone redundancy
	// skips) — the work the timings above are made of.
	Profile *obs.Profile `json:"profile,omitempty"`
}

func measure(f func() ([]float64, error)) (mode, error) {
	var inner error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f(); err != nil {
				inner = err
				b.Fatal(err)
			}
		}
	})
	if inner != nil {
		return mode{}, inner
	}
	return mode{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchjson:"}, args...)...)
	os.Exit(1)
}

func writeDoc(out, description string, workloads any) {
	doc := struct {
		Description string `json:"description"`
		Command     string `json:"command"`
		Workloads   any    `json:"workloads"`
	}{
		Description: description,
		Command:     "go run ./cmd/benchjson",
		Workloads:   workloads,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", out)
}

func main() {
	var (
		out     = flag.String("o", "BENCH_R2T.json", "τ-grid output file")
		execOut = flag.String("exec-o", "BENCH_EXEC.json", "join-executor output file")
		only    = flag.String("only", "all", "which suite to run: grid, exec, or all")
		sf      = flag.Float64("sf", 0.05, "TPC-H scale factor for the tpch workloads")
	)
	flag.Parse()

	if *only == "all" || *only == "grid" {
		runGrid(*out, *sf)
	}
	if *only == "all" || *only == "exec" {
		runExec(*execOut, *sf)
	}
}

func runGrid(out string, sf float64) {
	workloads, err := experiments.GridWorkloads(sf)
	if err != nil {
		fatal(err)
	}

	var results []any
	for i := range workloads {
		w := &workloads[i]

		// Correctness gate: the grid objectives must be bit-identical to the
		// cold per-race pipeline's before any number is recorded.
		coldVals, err := w.SolveCold()
		if err != nil {
			fatal(w.Name, err)
		}
		gridVals, err := w.SolveGrid()
		if err != nil {
			fatal(w.Name, err)
		}
		eq := len(coldVals) == len(gridVals)
		for j := range coldVals {
			if !eq || math.Float64bits(coldVals[j]) != math.Float64bits(gridVals[j]) {
				eq = false
				break
			}
		}
		if !eq {
			fatal(w.Name + ": grid values diverge from cold — refusing to record")
		}

		res := workloadResult{
			Workload:    w.Name,
			Races:       len(w.Taus),
			Occurrences: len(w.Occ.Sets),
			BitwiseEq:   true,
			Modes:       map[string]mode{},
		}
		cold, err := measure(w.SolveCold)
		if err != nil {
			fatal(w.Name, err)
		}
		res.Modes["cold"] = cold
		grid, err := measure(w.SolveGrid)
		if err != nil {
			fatal(w.Name, err)
		}
		grid.Speedup = round2(float64(cold.NsPerOp) / float64(grid.NsPerOp))
		res.Modes["grid"] = grid
		warm, err := measure(w.SolveGridWarm)
		if err != nil {
			fatal(w.Name, err)
		}
		warm.Speedup = round2(float64(cold.NsPerOp) / float64(warm.NsPerOp))
		res.Modes["grid-warm"] = warm

		// One instrumented grid solve for the stage/counter breakdown. The
		// recorder is pure observation (estimates stay bit-identical), and is
		// detached afterwards so it cannot skew later measurements.
		rec := obs.NewRecorder()
		w.Tr.SetRecorder(rec)
		if _, err := w.SolveGrid(); err != nil {
			fatal(w.Name, err)
		}
		w.Tr.SetRecorder(nil)
		res.Profile = rec.Snapshot()

		fmt.Fprintf(os.Stderr, "%-16s cold %8dns  grid %8dns (%.2fx, allocs %d→%d)  warm %8dns (%.2fx)\n",
			w.Name, cold.NsPerOp, grid.NsPerOp, grid.Speedup,
			cold.AllocsPerOp, grid.AllocsPerOp, warm.NsPerOp, warm.Speedup)
		results = append(results, res)
	}

	results = append(results, runPartition(sf)...)
	results = append(results, runChooser())

	writeDoc(out, "Full τ-grid solve (every race R2T runs for GS_Q=1024): cold per-race lp.Solve pipeline vs amortized lp.GridSolver. grid is the production path (bit-identical objectives, enforced above); grid-warm chains simplex warm starts across τ (exact but not bit-stable, see DESIGN.md). The partition workloads race the production grid LP (grid-lp) against the closed-form partition truncator (partition) on single-FK SJA shapes — bit-identical values enforced, speedup gated >= 5x. The chooser workload runs a mixed query set end to end under Mechanism \"auto\" vs always-R2T — auto is gated never slower, and queries where auto falls back to R2T gate on bit-identical seeded releases.", results)
}

// partitionResult is one fast-path workload's record: the production grid LP
// vs the closed-form partition truncator on a partition-shaped instance.
type partitionResult struct {
	Workload    string          `json:"workload"`
	Races       int             `json:"races"`
	Occurrences int             `json:"occurrences"`
	BitwiseEq   bool            `json:"partition_bitwise_equals_lp"`
	Modes       map[string]mode `json:"modes"`
}

// minPartitionSpeedup is the enforced fast-path bar: the closed-form
// truncator must clear 5x over the grid LP or the number is not recorded.
const minPartitionSpeedup = 5.0

func runPartition(sf float64) []any {
	workloads, err := experiments.PartitionWorkloads(sf)
	if err != nil {
		fatal(err)
	}
	var results []any
	for i := range workloads {
		w := &workloads[i]

		// Correctness gate first: the partition values must be bit-identical
		// to the simplex pipeline's before any number is recorded. A fast
		// wrong truncator is not a speedup — and here it would also be a
		// different release distribution.
		lpVals, err := w.SolveLP()
		if err != nil {
			fatal(w.Name, err)
		}
		ptVals, err := w.SolvePartition()
		if err != nil {
			fatal(w.Name, err)
		}
		if len(lpVals) != len(ptVals) {
			fatal(w.Name + ": value count mismatch")
		}
		for j := range lpVals {
			if math.Float64bits(lpVals[j]) != math.Float64bits(ptVals[j]) {
				fatal(fmt.Sprintf("%s: partition value diverges from LP at τ=%g (%x vs %x) — refusing to record",
					w.Name, w.Taus[j], math.Float64bits(ptVals[j]), math.Float64bits(lpVals[j])))
			}
		}

		res := partitionResult{
			Workload:    w.Name,
			Races:       len(w.Taus),
			Occurrences: len(w.Occ.Sets),
			BitwiseEq:   true,
			Modes:       map[string]mode{},
		}
		lpMode, err := measure(w.SolveLP)
		if err != nil {
			fatal(w.Name, err)
		}
		res.Modes["grid-lp"] = lpMode
		pt, err := measure(w.SolvePartition)
		if err != nil {
			fatal(w.Name, err)
		}
		pt.Speedup = round2(float64(lpMode.NsPerOp) / float64(pt.NsPerOp))
		res.Modes["partition"] = pt
		if pt.Speedup < minPartitionSpeedup {
			fatal(fmt.Sprintf("%s: partition path is only %.2fx the grid LP (want >= %.0fx) — refusing to record",
				w.Name, pt.Speedup, minPartitionSpeedup))
		}

		fmt.Fprintf(os.Stderr, "%-28s grid-lp %9dns  partition %8dns (%.2fx, allocs %d→%d)\n",
			w.Name, lpMode.NsPerOp, pt.NsPerOp, pt.Speedup, lpMode.AllocsPerOp, pt.AllocsPerOp)
		results = append(results, res)
	}
	return results
}

// chooserResult records the mixed-workload mechanism chooser run.
type chooserResult struct {
	Workload string `json:"workload"`
	Queries  int    `json:"queries"`
	// Selected counts fresh releases by the backend auto picked — the
	// data-independent decision record.
	Selected map[string]int `json:"auto_selected"`
	// R2TBitwiseEq: queries where auto fell back to R2T released answers
	// bit-identical to the always-R2T run under the same seed.
	R2TBitwiseEq bool            `json:"r2t_fallback_bitwise_equal"`
	Modes        map[string]mode `json:"modes"`
}

// chooserQuery is one item of the mixed chooser workload.
type chooserQuery struct {
	sql    string
	target float64 // 0 = no error target (auto must fall back to R2T)
}

// runChooser measures the cost-based chooser end to end on a mixed workload:
// half the queries carry a loose error target (a cheap a-priori-bounded
// backend qualifies), half carry none (auto falls back to R2T). Gates: auto
// is never slower than always-R2T overall, and the R2T-fallback queries
// release bit-identical seeded answers on both runs.
func runChooser() any {
	db := chooserDB()
	queries := []chooserQuery{
		{`SELECT COUNT(*) FROM Orders`, 1e6},
		{`SELECT SUM(Orders.price) FROM Orders`, 1e7},
		{`SELECT COUNT(*) FROM Orders WHERE Orders.price > 2`, 1e6},
		{`SELECT SUM(Orders.price) FROM Orders WHERE Orders.price < 5`, 1e7},
		{`SELECT COUNT(*) FROM Orders`, 0},
		{`SELECT SUM(Orders.price) FROM Orders`, 0},
	}
	opts := func(q chooserQuery, auto bool, seed int64) r2t.Options {
		o := r2t.Options{
			Epsilon: 1, GSQ: 1024, Primary: []string{"Customer"},
			Noise: r2t.NewNoiseSource(seed), EarlyStop: true,
		}
		if auto {
			o.Mechanism = "auto"
			o.ErrorTarget = q.target
		}
		return o
	}
	runAll := func(auto bool) ([]*r2t.Answer, error) {
		answers := make([]*r2t.Answer, len(queries))
		for i, q := range queries {
			ans, err := db.Query(q.sql, opts(q, auto, int64(100+i)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.sql, err)
			}
			answers[i] = ans
		}
		return answers, nil
	}

	// Gates before measuring: auto must pick a cheap bounded backend for every
	// targeted query, fall back to R2T for the rest, and the fallbacks must
	// release bit-identical answers to the always-R2T run.
	always, err := runAll(false)
	if err != nil {
		fatal("chooser", err)
	}
	auto, err := runAll(true)
	if err != nil {
		fatal("chooser", err)
	}
	selected := map[string]int{}
	for i, q := range queries {
		selected[auto[i].Mechanism]++
		if q.target > 0 && auto[i].Mechanism == "r2t" {
			fatal(fmt.Sprintf("chooser: %s with target %g still ran r2t — refusing to record", q.sql, q.target))
		}
		if q.target == 0 {
			if auto[i].Mechanism != "r2t" {
				fatal(fmt.Sprintf("chooser: %s without target ran %q — refusing to record", q.sql, auto[i].Mechanism))
			}
			if math.Float64bits(auto[i].Estimate) != math.Float64bits(always[i].Estimate) {
				fatal(fmt.Sprintf("chooser: %s r2t fallback release diverges from always-r2t — refusing to record", q.sql))
			}
		}
	}

	res := chooserResult{
		Workload:     "mixed-chooser",
		Queries:      len(queries),
		Selected:     selected,
		R2TBitwiseEq: true,
		Modes:        map[string]mode{},
	}
	alwaysMode, err := measure(func() ([]float64, error) { _, err := runAll(false); return nil, err })
	if err != nil {
		fatal("chooser", err)
	}
	res.Modes["always-r2t"] = alwaysMode
	autoMode, err := measure(func() ([]float64, error) { _, err := runAll(true); return nil, err })
	if err != nil {
		fatal("chooser", err)
	}
	autoMode.Speedup = round2(float64(alwaysMode.NsPerOp) / float64(autoMode.NsPerOp))
	res.Modes["chooser-auto"] = autoMode
	// The acceptance bar: auto never slower than always-R2T on the mix.
	if autoMode.Speedup < 1.0 {
		fatal(fmt.Sprintf("chooser: auto is %.2fx always-r2t (want >= 1.0x — never slower) — refusing to record", autoMode.Speedup))
	}

	fmt.Fprintf(os.Stderr, "%-28s always-r2t %8dns  chooser-auto %8dns (%.2fx) selected %v\n",
		"mixed-chooser", alwaysMode.NsPerOp, autoMode.NsPerOp, autoMode.Speedup, selected)
	return res
}

// chooserDB builds the chooser workload's instance: a single-FK shop at a
// size where R2T's LP work is visible, with a skewed ownership distribution.
func chooserDB() *r2t.DB {
	s := r2t.MustSchema(
		&r2t.Relation{Name: "Customer", Attrs: []string{"ID"}, PK: "ID"},
		&r2t.Relation{Name: "Orders", Attrs: []string{"cid", "price"},
			FKs: []r2t.FK{{Attr: "cid", Ref: "Customer"}}},
	)
	db := r2t.NewDB(s)
	const customers = 2000
	for i := int64(0); i < customers; i++ {
		if err := db.Insert("Customer", r2t.Int(i)); err != nil {
			fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < 20000; k++ {
		owner := int64(float64(customers) * rng.Float64() * rng.Float64())
		if owner >= customers {
			owner = customers - 1
		}
		if err := db.Insert("Orders", r2t.Int(owner), r2t.Int(1+int64(rng.Intn(9)))); err != nil {
			fatal(err)
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		fatal(err)
	}
	return db
}

// execMode is one executor configuration's measurement. Unlike the grid
// modes, speedups are relative to the legacy map-based executor.
type execMode struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Speedup     float64 `json:"speedup_vs_baseline,omitempty"`
}

type execResult struct {
	Workload  string              `json:"workload"`
	Rows      int                 `json:"join_rows"`
	Groups    int                 `json:"groups,omitempty"`
	Tenants   int                 `json:"tenants,omitempty"`
	BitwiseEq bool                `json:"bitwise_equals_baseline"`
	Modes     map[string]execMode `json:"modes"`
	// HitRate is the build-side index cache hit rate across an
	// append-interleaved run (gated >= 0.9: the incremental extension path
	// must keep the cache warm through write bursts).
	HitRate float64 `json:"index_cache_hit_rate,omitempty"`
	// AppendCost is the O(delta) evidence for the same workloads.
	AppendCost *appendCost `json:"append_cost,omitempty"`
	// Profile is one instrumented run's stage/counter breakdown (rows
	// probed/emitted, index-cache traffic, arena bytes).
	Profile *obs.Profile `json:"profile,omitempty"`
}

// appendCost records per-burst append cost against a warmed index cache at
// two table sizes. The ratio is gated well under the table-size ratio:
// extension work scales with the appended delta, not the table.
type appendCost struct {
	DeltaRows    int     `json:"delta_rows"`
	SmallBase    int     `json:"small_base_rows"`
	BigBase      int     `json:"big_base_rows"`
	SmallNsPerOp int64   `json:"small_ns_per_burst"`
	BigNsPerOp   int64   `json:"big_ns_per_burst"`
	CostRatio    float64 `json:"cost_ratio"`
	TableRatio   float64 `json:"table_ratio"`
	MaxCostRatio float64 `json:"max_cost_ratio"` // the enforced gate
}

func measureExec(f func() error) (execMode, error) {
	var inner error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f(); err != nil {
				inner = err
				b.Fatal(err)
			}
		}
	})
	if inner != nil {
		return execMode{}, inner
	}
	return execMode{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

func runExec(out string, sf float64) {
	joins, err := experiments.ExecWorkloads(sf)
	if err != nil {
		fatal(err)
	}

	var results []execResult
	for i := range joins {
		w := &joins[i]

		// Correctness gate: every mode must reproduce the legacy executor's
		// result bit-for-bit (row order, ψ, resolved provenance refs) before
		// its number is recorded. A fast wrong join is not a speedup.
		base, err := w.RunBaseline()
		if err != nil {
			fatal(w.Name, err)
		}
		for _, workers := range []int{1, 0} {
			got, err := w.Run(workers)
			if err != nil {
				fatal(w.Name, err)
			}
			if !experiments.SameResult(base, got) {
				fatal(w.Name + ": indexed executor diverges from baseline — refusing to record")
			}
		}

		res := execResult{Workload: w.Name, Rows: len(base.Rows), BitwiseEq: true, Modes: map[string]execMode{}}
		baseline, err := measureExec(func() error { _, err := w.RunBaseline(); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		res.Modes["baseline"] = baseline
		serial, err := measureExec(func() error { _, err := w.Run(1); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		serial.Speedup = round2(float64(baseline.NsPerOp) / float64(serial.NsPerOp))
		res.Modes["serial"] = serial
		parallel, err := measureExec(func() error { _, err := w.Run(0); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		parallel.Speedup = round2(float64(baseline.NsPerOp) / float64(parallel.NsPerOp))
		res.Modes["parallel"] = parallel

		rec := obs.NewRecorder()
		if _, err := exec.RunConfig(w.Plan, w.Inst, exec.Config{Recorder: rec}); err != nil {
			fatal(w.Name, err)
		}
		res.Profile = rec.Snapshot()

		fmt.Fprintf(os.Stderr, "%-16s baseline %8dns  serial %8dns (%.2fx, allocs %d→%d)  parallel %8dns (%.2fx)\n",
			w.Name, baseline.NsPerOp, serial.NsPerOp, serial.Speedup,
			baseline.AllocsPerOp, serial.AllocsPerOp, parallel.NsPerOp, parallel.Speedup)
		results = append(results, res)
	}

	groupbys, err := experiments.GroupByWorkloads(sf)
	if err != nil {
		fatal(err)
	}
	for i := range groupbys {
		w := &groupbys[i]

		// Gate: each partition of the single join must match the per-group
		// predicated join row-for-row.
		perGroup, err := w.RunPerGroup()
		if err != nil {
			fatal(w.Name, err)
		}
		parts, err := w.RunSingleJoin(1)
		if err != nil {
			fatal(w.Name, err)
		}
		rows := 0
		for g := range perGroup {
			if !experiments.SameResult(perGroup[g], parts[g]) {
				fatal(w.Name + ": single-join partition diverges from per-group join — refusing to record")
			}
			rows += len(perGroup[g].Rows)
		}

		res := execResult{Workload: w.Name, Rows: rows, Groups: len(w.Groups), BitwiseEq: true, Modes: map[string]execMode{}}
		pg, err := measureExec(func() error { _, err := w.RunPerGroup(); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		res.Modes["per-group"] = pg
		single, err := measureExec(func() error { _, err := w.RunSingleJoin(1); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		single.Speedup = round2(float64(pg.NsPerOp) / float64(single.NsPerOp))
		res.Modes["single-join"] = single

		rec := obs.NewRecorder()
		if _, err := exec.RunPartitioned(w.Plan, w.Inst, exec.Config{Workers: 1, Recorder: rec}, w.GroupVar, w.Groups, false); err != nil {
			fatal(w.Name, err)
		}
		res.Profile = rec.Snapshot()

		fmt.Fprintf(os.Stderr, "%-16s per-group %8dns  single-join %8dns (%.2fx, allocs %d→%d)\n",
			w.Name, pg.NsPerOp, single.NsPerOp, single.Speedup, pg.AllocsPerOp, single.AllocsPerOp)
		results = append(results, res)
	}

	shares, err := experiments.ShareWorkloads(sf)
	if err != nil {
		fatal(err)
	}
	for i := range shares {
		w := &shares[i]

		// Gate 1 (exec level): one shared probe pass must hand every tenant
		// the bit-identical result of running its own probe pass.
		unsharedRes, err := w.RunUnshared()
		if err != nil {
			fatal(w.Name, err)
		}
		sharedRes, err := w.RunShared()
		if err != nil {
			fatal(w.Name, err)
		}
		rows := 0
		for t := range w.Plans {
			if !experiments.SameResult(unsharedRes[t], sharedRes[t]) {
				fatal(w.Name + ": shared aggregate view diverges from unshared probe pass — refusing to record")
			}
		}
		if len(sharedRes) > 0 {
			rows = len(sharedRes[0].Rows)
		}
		// Gate 2 (end to end): with seeded noise, the batched entry point's
		// released answers must be bit-identical to issuing each tenant's
		// query alone with sharing disabled.
		if err := shareAnswerGate(w); err != nil {
			fatal(w.Name, err)
		}

		res := execResult{Workload: w.Name, Rows: rows, Tenants: len(w.Plans), BitwiseEq: true, Modes: map[string]execMode{}}
		unshared, err := measureExec(func() error { _, err := w.RunUnshared(); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		res.Modes["unshared"] = unshared
		shared, err := measureExec(func() error { _, err := w.RunShared(); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		shared.Speedup = round2(float64(unshared.NsPerOp) / float64(shared.NsPerOp))
		res.Modes["shared"] = shared
		// The acceptance bar for cross-query join sharing: well below this,
		// something regressed (the shared path re-probing, the core being
		// copied per tenant) and the number must not be recorded.
		if shared.Speedup < 1.5 {
			fatal(fmt.Sprintf("%s: shared path is only %.2fx the unshared path (want >= 1.5x) — refusing to record", w.Name, shared.Speedup))
		}

		fmt.Fprintf(os.Stderr, "%-20s %d tenants  unshared %8dns  shared %8dns (%.2fx, allocs %d→%d)\n",
			w.Name, len(w.Plans), unshared.NsPerOp, shared.NsPerOp, shared.Speedup,
			unshared.AllocsPerOp, shared.AllocsPerOp)
		results = append(results, res)
	}

	results = append(results, runAppend()...)

	writeDoc(out, "Join executor: legacy per-row-map serial joins (baseline) vs the indexed, slab-allocated executor at 1 worker (serial) and GOMAXPROCS workers (parallel); group-by as G predicated joins (per-group) vs one shared join partitioned by group value (single-join); mixed-tenants join sharing — N aggregate variants over one join core, each with its own probe pass (unshared) vs one probe pass fanned into N aggregate views (shared); and the append-interleaved workload — a write burst between every pair of queries, incremental O(delta) index extension (extend) vs rebuilding the build-side index every query (invalidate, the pre-segstore behaviour at this cadence), with enforced gates on hit rate (>= 0.9), extend speedup, and per-burst append cost staying flat as the table grows 8x. All modes produce bit-identical rows, ψ values, and provenance refs, and the mixed-tenants workloads additionally gate on bit-identical seeded released answers end to end (enforced above).", results)
}

// runAppend measures the append-interleaved workloads and enforces the
// durable-store performance contract before recording anything:
//
//  1. correctness — the final interleaved result (both modes) must be
//     row-for-row identical to a from-scratch load of the same rows;
//  2. cache survival — hit rate >= 0.9 across the bursts, zero
//     invalidations, every burst extending in place;
//  3. extension beats rebuilding — the extend mode must outrun the
//     invalidate mode;
//  4. O(delta) — per-burst append cost against a warmed cache must stay
//     within maxAppendCostRatio while the base table grows 8x.
func runAppend() []execResult {
	workloads, err := experiments.AppendWorkloads()
	if err != nil {
		fatal(err)
	}
	var results []execResult
	for i := range workloads {
		w := &workloads[i]

		truth, err := w.RunPreloaded()
		if err != nil {
			fatal(w.Name, err)
		}
		extRes, extStats, err := w.RunInterleaved(true)
		if err != nil {
			fatal(w.Name, err)
		}
		invRes, _, err := w.RunInterleaved(false)
		if err != nil {
			fatal(w.Name, err)
		}
		if !experiments.SameResult(truth, extRes) || !experiments.SameResult(truth, invRes) {
			fatal(w.Name + ": interleaved result diverges from a from-scratch load — refusing to record")
		}
		hitRate := float64(extStats.Hits) / float64(extStats.Hits+extStats.Misses)
		if hitRate < 0.9 {
			fatal(fmt.Sprintf("%s: index-cache hit rate %.3f under appends (want >= 0.9) — refusing to record", w.Name, hitRate))
		}
		if extStats.Invalidations != 0 || extStats.Rebuilds != 0 || extStats.Extensions < uint64(w.Bursts) {
			fatal(fmt.Sprintf("%s: appends did not extend in place (%+v) — refusing to record", w.Name, extStats))
		}

		res := execResult{
			Workload:  w.Name,
			Rows:      len(truth.Rows),
			BitwiseEq: true,
			HitRate:   round2(hitRate*100) / 100,
			Modes:     map[string]execMode{},
		}
		inv, err := measureExec(func() error { _, _, err := w.RunInterleaved(false); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		res.Modes["invalidate"] = inv
		ext, err := measureExec(func() error { _, _, err := w.RunInterleaved(true); return err })
		if err != nil {
			fatal(w.Name, err)
		}
		ext.Speedup = round2(float64(inv.NsPerOp) / float64(ext.NsPerOp))
		res.Modes["extend"] = ext
		if ext.Speedup < 1.1 {
			fatal(fmt.Sprintf("%s: extension is only %.2fx invalidate-and-rebuild (want >= 1.1x) — refusing to record", w.Name, ext.Speedup))
		}

		const (
			smallBase          = 10000
			bigBase            = 80000
			costBursts         = 100
			costReps           = 5
			maxAppendCostRatio = 4.0 // table grows 8x; cost must not follow
		)
		small, err := w.AppendCost(smallBase, costBursts, costReps)
		if err != nil {
			fatal(w.Name, err)
		}
		big, err := w.AppendCost(bigBase, costBursts, costReps)
		if err != nil {
			fatal(w.Name, err)
		}
		ratio := float64(big) / float64(small)
		if ratio > maxAppendCostRatio {
			fatal(fmt.Sprintf("%s: per-burst append cost grew %.2fx across an 8x table (want <= %.1fx — extension must be O(delta)) — refusing to record", w.Name, ratio, maxAppendCostRatio))
		}
		res.AppendCost = &appendCost{
			DeltaRows:    w.DeltaRows,
			SmallBase:    smallBase,
			BigBase:      bigBase,
			SmallNsPerOp: small.Nanoseconds(),
			BigNsPerOp:   big.Nanoseconds(),
			CostRatio:    round2(ratio),
			TableRatio:   float64(bigBase) / float64(smallBase),
			MaxCostRatio: maxAppendCostRatio,
		}

		fmt.Fprintf(os.Stderr, "%-20s invalidate %8dns  extend %8dns (%.2fx)  hit rate %.3f  append/burst %s→%s (%.2fx over 8x table)\n",
			w.Name, inv.NsPerOp, ext.NsPerOp, ext.Speedup, hitRate, small, big, ratio)
		results = append(results, res)
	}
	return results
}

// shareAnswerGate checks the released-answer half of the join-sharing
// equivalence gate: every tenant's QueryBatch answer must be bit-identical
// (estimate, true answer, τ*) to a solo db.Query of the same seeded options
// on a twin DB over the same instance with sharing off.
func shareAnswerGate(w *experiments.ShareWorkload) error {
	db := r2t.NewDBWithInstance(w.Inst)
	unshared := r2t.NewDBWithInstance(w.Inst)
	unshared.SetJoinShareCap(0)
	opts := func(i int) r2t.Options {
		return r2t.Options{
			Epsilon: 0.5, GSQ: 1024, Primary: w.Primary, Beta: 0.1,
			Noise: r2t.NewNoiseSource(int64(1000 + i)), EarlyStop: true,
		}
	}
	batch := make([]r2t.BatchQuery, len(w.SQLs))
	for i, q := range w.SQLs {
		batch[i] = r2t.BatchQuery{SQL: q, Opt: opts(i)}
	}
	got, err := db.QueryBatch(context.Background(), batch)
	if err != nil {
		return err
	}
	for i, q := range w.SQLs {
		want, err := unshared.Query(q, opts(i))
		if err != nil {
			return err
		}
		if math.Float64bits(got[i].Estimate) != math.Float64bits(want.Estimate) ||
			math.Float64bits(got[i].TrueAnswer) != math.Float64bits(want.TrueAnswer) ||
			math.Float64bits(got[i].TauStar) != math.Float64bits(want.TauStar) {
			return fmt.Errorf("tenant %d (%s): batched released answer diverges from solo unshared answer — refusing to record", i, q)
		}
	}
	return nil
}
