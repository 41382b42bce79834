package main

import (
	"math"

	"r2t/internal/tpch"
)

// workload is one of the four named benchmark workloads: a topology, a
// dataset, and a fixed, seed-derived request list driven by closed-loop
// clients. Request counts scale with -seconds through rate, which is
// calibrated so that the list takes about that long at the seed commit; a
// given (seed, seconds) is therefore the same work on every commit.
type workload struct {
	name    string
	why     string
	topo    string
	durable bool
	clients int
	// stride is the number of consecutive requests that form one indivisible
	// block of the list (a TPC-H round of ten); lists are whole blocks.
	stride int
	// rate is requests per second of -seconds.
	rate float64

	generate func(seed int64, scale float64) *dataset
	// warmup is driven during set-up, serially, before anything is measured.
	warmup func(d *dataset) []request
	// requests builds the measured list: n requests, derived from seed.
	requests func(d *dataset, warm []request, n int, seed int64) []request
	// probe is the k-th "first query after a restart": cheap, fresh, 200.
	probe func(d *dataset, k int) request
}

// count is the length of the measured request list for a run of `seconds`.
func (w *workload) count(seconds float64) int {
	blocks := int(math.Round(w.rate * seconds / float64(w.stride)))
	return max(blocks, 1) * w.stride
}

func shopWarmup(d *dataset) []request {
	var out []request
	for _, s := range shopHotSQL()[:4] {
		out = append(out, queryRequest(d, classFresh, s, nil, shopEps, ""))
	}
	return out
}

func shopProbe(d *dataset, k int) request {
	return queryRequest(d, classFresh, shopHotSQL()[0], nil, freshEps(shopEps+3, k), "")
}

// workloads returns the four workloads. A generate's scale shrinks the
// dataset (1 = the benchmark's size); only the smoke test runs below 1.
func workloads() []*workload {
	return []*workload{
		{
			name: "analytic-tpch",
			why:  "cold TPC-H joins and LP races on one in-memory node: exec, truncation and lp do the work, admission/ledger/cache almost none",
			topo: topoSingle, clients: 1, stride: len(tpch.Queries()), rate: 14,
			generate: func(seed int64, scale float64) *dataset { return genTPCH(2*scale, seed) },
			warmup:   func(d *dataset) []request { return tpchRound(d, 0) },
			requests: func(d *dataset, _ []request, n int, _ int64) []request {
				var out []request
				for r := 1; len(out) < n; r++ {
					out = append(out, tpchRound(d, r)...)
				}
				return out
			},
			probe: func(d *dataset, k int) request {
				return queryRequest(d, classFresh, "SELECT COUNT(*) FROM Supplier s, Nation n WHERE s.NK = n.NK",
					[]string{"Supplier"}, freshEps(tpchEps+3, k), "")
			},
		},
		{
			name: "charge-storm",
			why:  "hot joins, every request a new charge on a WAL-backed primary with one sync replica: decode, prepare, ledger fsync, replica ack and encode dominate; exec is bypassed",
			topo: topoReplicated, durable: true, clients: 2, stride: 1, rate: 700,
			generate: func(seed int64, scale float64) *dataset { return genShop(int(2000*scale), seed) },
			warmup:   shopWarmup,
			requests: func(d *dataset, _ []request, n int, _ int64) []request { return chargeStormRequests(d, n) },
			probe:    shopProbe,
		},
		{
			name: "serve-mixed",
			why:  "replays, fresh hot and cold queries, appends and rejects on one WAL-backed node: the only mix where the answer cache, segstore and index extension work and writes stale the reads' join cores",
			topo: topoSingle, durable: true, clients: 2, stride: len(mixBlock), rate: 100,
			generate: func(seed int64, scale float64) *dataset { return genShop(int(20000*scale), seed) },
			warmup:   func(d *dataset) []request { return shopHotSet(d, 20) },
			requests: serveMixedRequests,
			probe:    shopProbe,
		},
		{
			name: "scatter-sharded",
			why:  "fresh cold and hot joins through a router over 2 in-memory shards: Scatter, per-shard Partials, MergePartials and router admission, on serve-mixed's data and query shapes",
			topo: topoSharded, clients: 2, stride: 2, rate: 36,
			generate: func(seed int64, scale float64) *dataset { return genShop(int(20000*scale), seed) },
			warmup:   shopWarmup,
			requests: func(d *dataset, _ []request, n int, _ int64) []request { return scatterRequests(d, n) },
			probe:    shopProbe,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
