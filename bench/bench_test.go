package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale runs every workload at 1/50 size: the point is that the harness
// still boots every topology, emits every metric and runs every check — not
// the numbers.
const smokeScale = 0.02

func specsFor(trace bool) []spec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func smokeRun(t *testing.T, w *workload, trace bool) (res *result, outDir string) {
	t.Helper()
	outDir = t.TempDir()
	res, err := runWorkload(w, runConfig{
		seed: 1, seconds: runSeconds, scale: smokeScale, outDir: outDir, trace: trace, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	return res, outDir
}

// TestSmoke drives all four workloads, untraced and traced, and asserts that
// every declared metric is emitted and finite, that the output checks ran
// and passed, and that the workloads separate the layers as designed.
func TestSmoke(t *testing.T) {
	traced := map[string]map[string]metric{}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			res, outDir := smokeRun(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := specsFor(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, sp := range want {
				m, ok := res.Metrics[sp.name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.name, trace, sp.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s (trace %v): metric %s = %v", w.name, trace, sp.name, m.Value)
				case m.Unit != sp.unit:
					t.Errorf("%s (trace %v): metric %s has unit %q, declared %q", w.name, trace, sp.name, m.Unit, sp.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, sp.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			traced[w.name] = res.Metrics
			var spans []span
			raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.name+".json"))
			if err == nil {
				err = json.Unmarshal(raw, &spans)
			}
			if err != nil || len(spans) == 0 || spans[0].Name != rootRequest {
				t.Errorf("%s: trace file: %v, %d spans", w.name, err, len(spans))
			}
		}
	}

	// What the workloads were designed for, on counters that repeat exactly:
	// charge-storm never misses a join core or enters the LP, analytic-tpch
	// never hits a core and builds LPs, serve-mixed extends indexes.
	for _, c := range []struct {
		workload, metric string
		ok               func(v float64) bool
		want             string
	}{
		{"charge-storm", "exec.core_cache_hit_ratio", func(v float64) bool { return v >= 0.99 }, ">= 0.99"},
		{"charge-storm", "truncation.partition_share", func(v float64) bool { return v == 1 }, "1"},
		{"charge-storm", "lp.simplex_iters", func(v float64) bool { return v == 0 }, "0"},
		{"analytic-tpch", "exec.core_cache_hit_ratio", func(v float64) bool { return v <= 0.01 }, "<= 0.01"},
		{"analytic-tpch", "truncation.partition_share", func(v float64) bool { return v < 1 }, "< 1"},
		{"serve-mixed", "exec.index_extensions", func(v float64) bool { return v > 0 }, "> 0"},
		{"serve-mixed", "server.answer_cache_hit_ratio", func(v float64) bool { return v > 0.5 }, "> 0.5"},
		{"scatter-sharded", "shard.reply_bytes", func(v float64) bool { return v > 0 }, "> 0"},
	} {
		if got := traced[c.workload][c.metric].Value; !c.ok(got) {
			t.Errorf("%s %s = %v, want %s", c.workload, c.metric, got, c.want)
		}
	}
}

// TestDigestRepeats: one client, a seeded noise source, a fixed list — the
// same seed must release the same bits.
func TestDigestRepeats(t *testing.T) {
	w := workloadByName("analytic-tpch")
	a, _ := smokeRun(t, w, false)
	b, _ := smokeRun(t, w, false)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("release_digest %q then %q for the same seed", a.Digest, b.Digest)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	lower := spec{name: "fresh_p50_ms", bound: 0.10}
	higher := spec{name: "throughput_rps", higher: true, bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	for _, c := range []struct {
		sp   spec
		a, b []float64
		want string
	}{
		{lower, steady(10), steady(10.5), "ok"},
		{lower, steady(10), steady(12), "worse"},
		{lower, steady(10), steady(8), "ok"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(120), "ok"},
		{lower, steady(10), []float64{8, 12, 16}, "unresolved"},
		{lower, []float64{10}, []float64{12}, "worse"},
	} {
		if got := judge(c.sp, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.sp.name, c.a, c.b, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, fresh float64) string {
		rf := reportFile{Workloads: map[string]map[string]series{
			"charge-storm": {"fresh_p50_ms": {Unit: "ms", Values: steady(fresh)}, "sql.parse_us": {Unit: "us", Values: steady(9)}},
		}}
		b, _ := json.Marshal(rf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareReports(&out, write("a.json", 2), write("b.json", 3)); err == nil {
		t.Errorf("compare of a 50%% slower fresh_p50_ms did not fail")
	}
	for _, want := range []string{"charge-storm", "fresh_p50_ms", "1.500x of a", "worse", "sql.parse_us"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step with
// the metric and workload tables compiled into the command.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", got.RunSeconds, runSeconds)
	}
	if len(got.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if got.Workloads[i].Name != w.name || got.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, entries []entry, specs []spec) {
		if len(entries) != len(specs) {
			t.Errorf("%s: %d entries, want %d", kind, len(entries), len(specs))
			return
		}
		for i, sp := range specs {
			want := entry{Name: sp.name, Unit: sp.unit, Better: better(sp.higher), Bound: sp.bound}
			if entries[i] != want {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, entries[i], want)
			}
		}
	}
	check("end_to_end", got.EndToEnd, endToEnd)
	check("per_layer", got.PerLayer, perLayer)
}
