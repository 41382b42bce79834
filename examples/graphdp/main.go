// graphdp: node-DP graph pattern counting on a synthetic social network —
// the workload class of Section 10.2.
//
// A heavy-tailed graph is generated (a stand-in for the paper's Deezer
// dataset), loaded into the engine as Node/Edge relations, and all four
// benchmark pattern queries — edges, length-2 paths, triangles, rectangles —
// are answered under node-DP with the paper's GS_Q settings (D, D², D², D³).
package main

import (
	"fmt"
	"log"

	"r2t"
	"r2t/internal/graph"
)

// queries are SJA formulations with dedup predicates (Section 10.1). Node
// atoms are added automatically by query completion.
var queries = []struct {
	name string
	gsq  func(d float64) float64
	sql  string
}{
	{"edge count (Q1-)", func(d float64) float64 { return d },
		`SELECT COUNT(*) FROM Edge WHERE Edge.src < Edge.dst`},
	{"length-2 paths (Q2-)", func(d float64) float64 { return d * d },
		`SELECT COUNT(*) FROM Edge e1, Edge e2
		 WHERE e1.dst = e2.src AND e1.src < e2.dst AND e1.src <> e2.dst`},
	{"triangles (Qtri)", func(d float64) float64 { return d * d },
		`SELECT COUNT(*) FROM Edge e1, Edge e2, Edge e3
		 WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
		   AND e1.src < e2.src AND e2.src < e3.src`},
	{"rectangles (Qrect)", func(d float64) float64 { return d * d * d },
		`SELECT COUNT(*) FROM Edge e1, Edge e2, Edge e3, Edge e4
		 WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e4.src AND e4.dst = e1.src
		   AND e1.src < e2.src AND e1.src < e3.src AND e1.src < e4.src AND e2.src < e4.src
		   AND e1.src <> e3.src AND e2.src <> e4.src`},
}

func main() {
	const degreeBound = 16 // the public degree promise D (road networks, Table 1)

	g := graph.GenRoad(60, 60, 7)
	fmt.Printf("road network: %d nodes, %d edges, max degree %d (bound D=%d)\n\n",
		g.N, g.NumEdges(), g.MaxDegree(), degreeBound)

	s := r2t.MustSchema(
		&r2t.Relation{Name: "Node", Attrs: []string{"ID"}, PK: "ID"},
		&r2t.Relation{Name: "Edge", Attrs: []string{"src", "dst"},
			FKs: []r2t.FK{{Attr: "src", Ref: "Node"}, {Attr: "dst", Ref: "Node"}}},
	)
	db := r2t.NewDB(s)
	for u := 0; u < g.N; u++ {
		must(db.Insert("Node", r2t.Int(int64(u))))
		for _, v := range g.Adj[u] {
			must(db.Insert("Edge", r2t.Int(int64(u)), r2t.Int(int64(v))))
		}
	}

	for i, q := range queries {
		ans, err := db.Query(q.sql, r2t.Options{
			Epsilon: 0.8,
			GSQ:     q.gsq(degreeBound),
			Primary: []string{"Node"},
			Noise:   r2t.NewNoiseSource(int64(100 + i)),
		})
		if err != nil {
			log.Fatalf("%s: %v", q.name, err)
		}
		fmt.Printf("%-22s true=%-8.0f private=%-10.1f error=%6.2f%%  τ*=%-5.0f winner τ=%-5g (%s)\n",
			q.name, ans.TrueAnswer, ans.Estimate,
			100*abs(ans.Estimate-ans.TrueAnswer)/ans.TrueAnswer,
			ans.TauStar, ans.WinnerTau, ans.Duration.Round(1e6))
	}
	fmt.Println("\nNote: the private answers are ε-DP; the 'true' column is shown only to")
	fmt.Println("judge accuracy and must not be released in a real deployment.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
