package truncation_test

import (
	"math"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/shard"
	"r2t/internal/truncation"
)

// FuzzMergePartials: whatever bytes a shard puts on the wire, the router's
// decode → merge → race-grid evaluation never panics, and an accepted merge
// releases only finite, non-negative values. The reply's units stand in for
// the per-shard parts of one unit.
func FuzzMergePartials(f *testing.F) {
	f.Add(shard.EncodeReply(shard.Reply{Units: []*truncation.Partial{
		{Sorted: []float64{1, 2, 5}, Free: 1, Total: 9, IntExact: true, Answer: 9, TauStar: 5, NumResults: 9},
		{Sorted: []float64{0.5, 3.25}, Total: 3.75, Answer: 3.75, TauStar: 3.25, NumResults: 2},
	}}))
	f.Add([]byte(`{"units":[{"sorted":[1e308]},{"sorted":[1e308]}]}`))
	f.Add([]byte(`{"units":[{"sorted":[-1,2],"free":-3,"answer":-1e300,"num_results":-4}]}`))
	f.Add([]byte(`{"units":[{"free":1e308,"answer":1e308},{"free":1e308,"answer":1e308}]}`))
	f.Add([]byte(`{"units":[null]}`))
	f.Add([]byte(`{"units":[]}`))
	f.Add([]byte(`{"err":"boom"}`))
	f.Add([]byte(`{`))

	taus := dp.TauGrid(4096)
	f.Fuzz(func(t *testing.T, data []byte) {
		reply, err := shard.DecodeReply(data)
		if err != nil {
			return
		}
		m, err := truncation.MergePartials(reply.Units)
		if err != nil {
			return
		}
		vals, err := m.Values(taus)
		if err != nil {
			t.Fatalf("accepted merge fails on the race grid: %v", err)
		}
		for i, v := range append(vals, m.TrueAnswer(), m.TauStar()) {
			if !(v >= 0) || math.IsInf(v, 1) {
				t.Fatalf("accepted merge released %v (entry %d of grid values, answer, τ*)", v, i)
			}
		}
	})
}
