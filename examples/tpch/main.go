// tpch: private SPJA analytics over the TPC-H schema with multiple primary
// private relations — the workload of Example 9.1 and Section 10.3.
//
// A synthetic TPC-H instance is generated (micro-scaled; see internal/tpch),
// then three queries run under ε-DP:
//
//  1. the revenue SUM of Example 9.1, protecting Supplier AND Customer
//     simultaneously (Section 8's multiple-primary-private-relations policy);
//  2. a COUNT with a self-join (Q21-style, two Lineitem aliases);
//  3. a COUNT(DISTINCT ...) projection (Q10-style).
package main

import (
	"fmt"
	"log"

	"r2t"
	"r2t/internal/tpch"
)

func main() {
	// Generate a deterministic micro TPC-H instance (SF=2 ≈ 90k tuples) and
	// wrap it in the public DB facade. Note on accuracy: this instance is
	// ~100× smaller than the paper's SF=1 database, and R2T's error is an
	// absolute quantity (∝ DS_Q), so relative errors here are ~100× the
	// paper's sub-1% numbers. They shrink linearly as the data grows — run
	// cmd/experiments -exp fig7 to see exactly that trend.
	inst := tpch.Generate(tpch.GenOptions{SF: 2, Seed: 11})
	db := r2t.NewDBWithInstance(inst)
	if err := db.CheckIntegrity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-H instance: %d tuples (%d customers, %d suppliers, %d lineitems)\n\n",
		inst.TotalRows(), inst.Table("Customer").Len(), inst.Table("Supplier").Len(), inst.Table("Lineitem").Len())

	queries := []struct {
		name    string
		sql     string
		primary []string
	}{
		{
			"revenue SUM (Example 9.1)",
			`SELECT SUM(l.price * (1 - l.discount))
			 FROM Supplier s, Lineitem l, Orders o, Customer c
			 WHERE s.SK = l.SK AND l.OK = o.OK AND o.CK = c.CK
			   AND o.odate >= 1200`,
			[]string{"Supplier", "Customer"},
		},
		{
			"multi-supplier orders (Q21-style self-join)",
			`SELECT COUNT(*) FROM Supplier s, Lineitem l1, Lineitem l2, Orders o
			 WHERE s.SK = l1.SK AND o.OK = l1.OK AND l2.OK = l1.OK AND l2.SK <> l1.SK
			   AND o.opriority = '1-URGENT'`,
			[]string{"Supplier", "Customer"},
		},
		{
			"distinct returning customers (Q10-style projection)",
			`SELECT COUNT(DISTINCT c.CK) FROM Customer c, Orders o, Lineitem l
			 WHERE c.CK = o.CK AND o.OK = l.OK AND l.returnflag = 'R'`,
			[]string{"Customer"},
		},
	}

	for i, q := range queries {
		ans, err := db.Query(q.sql, r2t.Options{
			Epsilon: 2,
			GSQ:     1e6, // conservative, as the paper recommends — R2T only pays log(GSQ)
			Primary: q.primary,
			Noise:   r2t.NewNoiseSource(int64(31 + i)),
		})
		if err != nil {
			log.Fatalf("%s: %v", q.name, err)
		}
		fmt.Printf("%s\n  protecting %v\n", q.name, q.primary)
		fmt.Printf("  true=%.6g  private=%.6g  error=%.3g%%  (τ*=%.4g, winner τ=%g, %s)\n\n",
			ans.TrueAnswer, ans.Estimate,
			100*abs(ans.Estimate-ans.TrueAnswer)/ans.TrueAnswer,
			ans.TauStar, ans.WinnerTau, ans.Duration.Round(1e6))
	}
	fmt.Println("The private answers are ε-DP under the FK-aware policy: a neighbor may")
	fmt.Println("drop a supplier or customer together with all orders and lineitems that")
	fmt.Println("reference it. True answers shown for accuracy judgment only.")
	fmt.Println()
	fmt.Println("Supplier-protected queries look noisy here because this micro instance")
	fmt.Println("has only 160 suppliers: each one owns ~1% of the answer, and no DP")
	fmt.Println("mechanism may depend that strongly on one individual. The paper's SF=1")
	fmt.Println("database has 10,000 suppliers, shrinking the same absolute error to the")
	fmt.Println("sub-2% numbers of Table 5.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
