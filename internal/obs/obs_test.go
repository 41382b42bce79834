package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderDisabledAllocFree is the named gate for the disabled path: a
// nil *Recorder must cost nothing — no allocations from Observe, Add, Time,
// or Snapshot. This is the contract that lets every pipeline layer thread a
// recorder pointer unconditionally.
func TestRecorderDisabledAllocFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(StageExec, time.Second)
		r.Add(CtrSimplexIters, 42)
		// The partition fast path and the mechanism backends thread the same
		// pointer; their counters must be equally free when disabled.
		r.Add(CtrPartitionFastPath, 1)
		r.Add(CtrPartitionValues, 1)
		stop := r.Time(StageLPSolve)
		stop()
		stopNoise := r.Time(StageNoise)
		stopNoise()
		if r.Snapshot() != nil {
			t.Fatal("nil recorder must snapshot to nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled profiler path allocated %v times per run, want 0", allocs)
	}
}

func TestRecorderRecords(t *testing.T) {
	r := NewRecorder()
	r.Observe(StageExec, 3*time.Millisecond)
	r.Observe(StageExec, 2*time.Millisecond)
	r.Observe(StageNoise, time.Millisecond)
	r.Add(CtrSimplexPivots, 7)
	r.Add(CtrSimplexPivots, 3)
	r.Add(CtrArenaBytes, 1024)

	p := r.Snapshot()
	if p == nil {
		t.Fatal("live recorder snapshot is nil")
	}
	want := map[string]struct {
		d time.Duration
		n int64
	}{
		"exec":  {5 * time.Millisecond, 2},
		"noise": {time.Millisecond, 1},
	}
	if len(p.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d: %+v", len(p.Stages), len(want), p.Stages)
	}
	for _, st := range p.Stages {
		w, ok := want[st.Stage]
		if !ok {
			t.Fatalf("unexpected stage %q", st.Stage)
		}
		if st.Duration != w.d || st.Count != w.n {
			t.Fatalf("stage %q = (%v, %d), want (%v, %d)", st.Stage, st.Duration, st.Count, w.d, w.n)
		}
	}
	if got := p.Counters["simplex_pivots"]; got != 10 {
		t.Fatalf("simplex_pivots = %d, want 10", got)
	}
	if got := p.Counters["arena_bytes"]; got != 1024 {
		t.Fatalf("arena_bytes = %d, want 1024", got)
	}
	if _, ok := p.Counters["simplex_iters"]; ok {
		t.Fatal("zero counter must be omitted from snapshot")
	}
	if p.StageTotal() != 6*time.Millisecond {
		t.Fatalf("StageTotal = %v, want 6ms", p.StageTotal())
	}
}

// Stage order in a snapshot is pipeline order regardless of recording order.
func TestSnapshotStageOrder(t *testing.T) {
	r := NewRecorder()
	r.Observe(StageNoise, time.Millisecond)
	r.Observe(StageParse, time.Millisecond)
	r.Observe(StageLPSolve, time.Millisecond)
	p := r.Snapshot()
	gotOrder := make([]string, len(p.Stages))
	for i, st := range p.Stages {
		gotOrder[i] = st.Stage
	}
	if len(gotOrder) != 3 || gotOrder[0] != "parse" || gotOrder[1] != "lp-solve" || gotOrder[2] != "noise" {
		t.Fatalf("stage order = %v, want [parse lp-solve noise]", gotOrder)
	}
}

func TestTimeRecordsElapsed(t *testing.T) {
	r := NewRecorder()
	stop := r.Time(StagePlan)
	time.Sleep(2 * time.Millisecond)
	stop()
	p := r.Snapshot()
	if len(p.Stages) != 1 || p.Stages[0].Stage != "plan" {
		t.Fatalf("snapshot = %+v, want one plan stage", p.Stages)
	}
	if p.Stages[0].Duration < time.Millisecond {
		t.Fatalf("plan duration %v, want >= 1ms", p.Stages[0].Duration)
	}
}

// Concurrent recording from many goroutines (the executor's probe workers
// share one recorder) must lose nothing; run under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(CtrExecRowsProbed, 1)
				r.Observe(StageExec, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	p := r.Snapshot()
	if got := p.Counters["exec_rows_probed"]; got != goroutines*per {
		t.Fatalf("exec_rows_probed = %d, want %d", got, goroutines*per)
	}
	if p.Stages[0].Count != goroutines*per {
		t.Fatalf("exec count = %d, want %d", p.Stages[0].Count, goroutines*per)
	}
}

func TestProfileString(t *testing.T) {
	r := NewRecorder()
	r.Observe(StageExec, 30*time.Millisecond)
	r.Observe(StageLPSolve, 70*time.Millisecond)
	r.Add(CtrSimplexIters, 123)
	s := r.Snapshot().String()
	for _, want := range []string{"exec", "lp-solve", "70.0%", "total", "simplex_iters", "123", "NON-PRIVATE"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered profile missing %q:\n%s", want, s)
		}
	}
}

func TestStageCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "stage(") || seen[name] {
			t.Fatalf("bad or duplicate stage name %q for %d", name, s)
		}
		seen[name] = true
	}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") || seen[name] {
			t.Fatalf("bad or duplicate counter name %q for %d", name, c)
		}
		seen[name] = true
	}
	if Stage(99).String() != "stage(99)" || Counter(-1).String() != "counter(-1)" {
		t.Fatal("out-of-range String() should degrade gracefully")
	}
}

// BenchmarkRecorderDisabled is the perf companion to the alloc gate,
// mirroring fault.BenchmarkCheckDisabled: the nil-recorder path should be a
// couple of predictable branches.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(CtrExecRowsProbed, 1)
		stop := r.Time(StageExec)
		stop()
	}
}

// BenchmarkRecorderEnabled bounds the enabled-path cost (two atomic adds per
// Observe, one per Add).
func BenchmarkRecorderEnabled(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(CtrExecRowsProbed, 1)
		r.Observe(StageExec, time.Nanosecond)
	}
}
