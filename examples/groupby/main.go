// groupby: per-group private aggregation via budget splitting — the simple
// strategy the paper sketches as future work (Section 11).
//
// The query counts orders per market segment. The segment domain is public
// (it is part of the schema's documentation, not the data), so the release
// runs one R2T query per segment with ε/5 each: ε-DP overall by basic
// composition.
package main

import (
	"fmt"
	"log"

	"r2t"
	"r2t/internal/tpch"
)

func main() {
	inst := tpch.Generate(tpch.GenOptions{SF: 4, Seed: 5})
	db := r2t.NewDBWithInstance(inst)

	segments := []r2t.Value{
		r2t.Str("AUTOMOBILE"), r2t.Str("BUILDING"), r2t.Str("FURNITURE"),
		r2t.Str("HOUSEHOLD"), r2t.Str("MACHINERY"),
	}

	out, err := db.QueryGroupBy(
		`SELECT COUNT(*) FROM Customer c, Orders o WHERE c.CK = o.CK`,
		"c.mktsegment",
		segments,
		r2t.Options{
			Epsilon: 5,    // split into ε=1 per group
			GSQ:     4096, // conservative bound on orders per customer (true max ~30)
			Primary: []string{"Customer"},
			Noise:   r2t.NewNoiseSource(17),
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("orders per market segment (ε = 5 total, split over 5 groups):")
	fmt.Printf("%-12s  %10s  %10s  %8s\n", "segment", "private", "true*", "error")
	for _, g := range out {
		a := g.Answer
		fmt.Printf("%-12s  %10.1f  %10.0f  %7.2f%%\n",
			g.Group.S, a.Estimate, a.TrueAnswer,
			100*abs(a.Estimate-a.TrueAnswer)/a.TrueAnswer)
	}
	fmt.Println("\n* true counts shown for accuracy judgment only; the private column is")
	fmt.Println("  safe to publish. Splitting the budget five ways costs accuracy — the")
	fmt.Println("  open problem Section 11 poses is answering all groups in one shot.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
