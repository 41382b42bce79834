// Command r2t answers one SPJA SQL query under ε-differential privacy.
//
// The schema is described by a small text file (one relation per line):
//
//	Node(ID*)                      # '*' marks the primary key
//	Edge(src->Node, dst->Node)     # '->R' marks a foreign key into R
//
// Each relation is loaded from <datadir>/<relation>.csv (header row matching
// the attribute names). Example:
//
//	r2t -schema graph.schema -data ./data -primary Node \
//	    -gsq 1024 -eps 0.8 \
//	    -query "SELECT COUNT(*) FROM Edge WHERE src < dst"
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"r2t"
	"r2t/internal/schemadesc"
)

func main() {
	var (
		schemaPath = flag.String("schema", "", "schema description file")
		dataDir    = flag.String("data", ".", "directory with <relation>.csv files")
		query      = flag.String("query", "", "SPJA SQL query")
		primary    = flag.String("primary", "", "comma-separated primary private relations")
		eps        = flag.Float64("eps", 0.8, "privacy budget ε")
		gsq        = flag.Float64("gsq", 1e6, "assumed global sensitivity bound")
		beta       = flag.Float64("beta", 0.1, "utility failure probability β")
		seed       = flag.Int64("seed", 0, "noise seed (0 = fresh crypto seed)")
		early      = flag.Bool("earlystop", true, "enable early-stop race pruning")
		profile    = flag.Bool("profile", false, "print the NON-PRIVATE per-stage profile (EXPLAIN ANALYZE style)")
		debug      = flag.Bool("debug", false, "print NON-PRIVATE diagnostics (true answer, τ*, races)")
		report     = flag.String("report", "", "instead of answering, export the NON-PRIVATE reporting-query occurrences to this file (Figure 3 pipeline)")
	)
	flag.Parse()
	if *schemaPath == "" || *query == "" || *primary == "" {
		flag.Usage()
		os.Exit(2)
	}

	s, err := loadSchema(*schemaPath)
	if err != nil {
		fatal(err)
	}
	db := r2t.NewDB(s)
	for _, name := range s.Names() {
		path := filepath.Join(*dataDir, name+".csv")
		if _, err := os.Stat(path); err != nil {
			continue // relations without a file stay empty
		}
		if err := db.LoadCSV(name, path); err != nil {
			fatal(fmt.Errorf("loading %s: %w", path, err))
		}
	}
	if err := db.CheckIntegrity(); err != nil {
		fatal(err)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		if err := db.ExportReport(*query, strings.Split(*primary, ","), f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote reporting-query occurrences to %s (raw private data — do not release)\n", *report)
		return
	}

	opt := r2t.Options{
		Epsilon:   *eps,
		GSQ:       *gsq,
		Beta:      *beta,
		Primary:   strings.Split(*primary, ","),
		EarlyStop: *early,
		Profile:   *profile,
	}
	if *seed != 0 {
		opt.Noise = r2t.NewNoiseSource(*seed)
	}
	// seed == 0: leave Noise nil so the engine keys from the system CSPRNG
	// (dp.NewCryptoSource) — wall-clock seeding is reconstructible by anyone who
	// can bound when the query ran.

	ans, err := db.Query(*query, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("private answer: %.6g\n", ans.Estimate)
	if *profile {
		fmt.Print(r2t.ExplainAnalyze(ans))
	}
	if *debug {
		fmt.Printf("NON-PRIVATE true answer: %.6g (error %.4g%%)\n",
			ans.TrueAnswer, 100*abs(ans.Estimate-ans.TrueAnswer)/max(1, abs(ans.TrueAnswer)))
		fmt.Printf("NON-PRIVATE τ* = %.6g, winner τ = %g, join results = %d, individuals = %d\n",
			ans.TauStar, ans.WinnerTau, ans.NumResults, ans.Individuals)
		for _, r := range ans.Races {
			status := "solved"
			if r.Pruned {
				status = "pruned"
			}
			fmt.Printf("  τ=%-10g %-7s Q(I,τ)=%-12.6g Q̃=%-12.6g (%s)\n", r.Tau, status, r.Value, r.Noisy, r.Duration.Round(time.Microsecond))
		}
	}
	fmt.Printf("time: %s\n", ans.Duration.Round(time.Millisecond))
}

// loadSchema parses the minimal schema description language (shared with
// cmd/r2td via internal/schemadesc).
func loadSchema(path string) (*r2t.Schema, error) {
	return schemadesc.ParseFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r2t:", err)
	os.Exit(1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
