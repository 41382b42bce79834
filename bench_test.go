// Benchmarks, one per table and figure of the paper's evaluation (Section
// 10), plus micro-benchmarks of the load-bearing components. The table/figure
// benchmarks run miniature configurations (tiny scale, one repetition per
// cell) so `go test -bench=.` stays laptop-friendly; use cmd/experiments for
// full-size runs and EXPERIMENTS.md for the recorded reference results.
package r2t

import (
	"io"
	"testing"

	"r2t/internal/core"
	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/experiments"
	"r2t/internal/graph"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/tpch"
	"r2t/internal/truncation"
)

func benchCfg() experiments.Config {
	return experiments.Config{
		Scale:  0.04,
		TPCHSF: 0.125,
		Reps:   1,
		Trim:   0.01,
		Eps:    0.8,
		Seed:   1,
		Out:    io.Discard,
	}
}

// BenchmarkTable1Datasets builds the five synthetic datasets and reports
// their statistics (paper Table 1).
func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table1(cfg)
	}
}

// BenchmarkTable2GraphPatterns regenerates the graph-pattern comparison
// (paper Table 2: R2T vs NT, SDE, LP, RM on Q1-, Q2-, Q△, Q□).
func BenchmarkTable2GraphPatterns(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table2(cfg)
	}
}

// BenchmarkFig6EpsilonSweep regenerates the ε sweep on the road-network sim
// (paper Figure 6).
func BenchmarkFig6EpsilonSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(cfg)
	}
}

// BenchmarkTable3TauSensitivity regenerates the fixed-τ sensitivity study
// (paper Table 3).
func BenchmarkTable3TauSensitivity(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table3(cfg)
	}
}

// BenchmarkTable4EarlyStop regenerates the early-stop timing comparison
// (paper Table 4).
func BenchmarkTable4EarlyStop(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table4(cfg)
	}
}

// BenchmarkTable5TPCH regenerates the TPC-H comparison (paper Table 5: R2T
// vs LS on the ten benchmark queries).
func BenchmarkTable5TPCH(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table5(cfg)
	}
}

// BenchmarkFig7Scalability regenerates the data-scale sweep (paper Figure 7)
// on a reduced scale ladder.
func BenchmarkFig7Scalability(b *testing.B) {
	cfg := benchCfg()
	cfg.TPCHSF = 0.06
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg)
	}
}

// BenchmarkFig8GSQSweep regenerates the GS_Q sweep (paper Figure 8).
func BenchmarkFig8GSQSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(cfg)
	}
}

// --- micro-benchmarks -------------------------------------------------

// BenchmarkLaplaceSample measures the noise sampler.
func BenchmarkLaplaceSample(b *testing.B) {
	src := dp.NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Laplace(3.5)
	}
}

// BenchmarkHashJoinTriangles measures the SQL engine on triangle counting
// over a 300-node social graph.
func BenchmarkHashJoinTriangles(b *testing.B) {
	g := graph.GenSocial(300, 1200, 64, 3)
	s := schema.MustNew(
		&schema.Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&schema.Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []schema.FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
	db := NewDB(s)
	for u := 0; u < g.N; u++ {
		if err := db.Insert("Node", Int(int64(u))); err != nil {
			b.Fatal(err)
		}
		for _, v := range g.Adj[u] {
			if err := db.Insert("Edge", Int(int64(u)), Int(int64(v))); err != nil {
				b.Fatal(err)
			}
		}
	}
	q := sql.MustParse(`SELECT COUNT(*) FROM Edge e1, Edge e2, Edge e3
		WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
		  AND e1.src < e2.src AND e2.src < e3.src`)
	p, err := plan.Build(q, s, schema.PrivateSpec{Primary: []string{"Node"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(p, db.Instance()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPTruncationWedges measures one truncation LP solve at a
// mid-range τ on a heavy-tailed wedge workload.
func BenchmarkLPTruncationWedges(b *testing.B) {
	g := graph.GenSocial(200, 800, 48, 5)
	occ := exec.FromSets("Node", g.N, graph.Occurrences(g, graph.Paths2))
	tr := truncation.NewLPFromOccurrences(occ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Value(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkR2TEdgeCount measures a full R2T invocation (all races, early
// stop) for edge counting on a road-network sim.
func BenchmarkR2TEdgeCount(b *testing.B) {
	g := graph.GenRoad(30, 40, 2)
	occ := exec.FromSets("Node", g.N, graph.Occurrences(g, graph.Edges))
	tr := truncation.NewLPFromOccurrences(occ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(tr, core.Config{
			Epsilon: 0.8, GSQ: 1024, Noise: dp.NewSource(int64(i)), EarlyStop: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMGreedy measures the recursive-mechanism stand-in on a triangle
// workload.
func BenchmarkRMGreedy(b *testing.B) {
	g := graph.GenSocial(300, 1200, 64, 3)
	occ := exec.FromSets("Node", g.N, graph.Occurrences(g, graph.Triangles))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RM(occ, 0.8, dp.NewSource(int64(i)))
	}
}

// BenchmarkTPCHGenerate measures the synthetic data generator.
func BenchmarkTPCHGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tpch.Generate(tpch.GenOptions{SF: 0.125, Seed: int64(i)})
	}
}
