// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 10) on the synthetic substrates: Table 1 (dataset
// stats), Table 2 (graph pattern counting, R2T vs NT/SDE/LP/RM), Figure 6
// (ε sweep), Table 3 (τ sensitivity of the fixed-τ LP mechanism), Table 4
// (early-stop speedup), Table 5 (TPC-H, R2T vs LS), Figure 7 (scalability)
// and Figure 8 (GS_Q sweep).
//
// Error cells follow the paper's protocol: repeat each mechanism Reps times,
// drop the best and worst Trim fraction, and report the mean relative error
// of the rest. All randomness is seeded, so a run is reproducible.
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"r2t/internal/core"
	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/graph"
	"r2t/internal/truncation"
)

// Config tunes dataset scale and statistical effort. The zero value is
// filled with laptop-friendly defaults.
type Config struct {
	Scale  float64 // graph scale multiplier: 1.0 ≈ 1/100 of the paper's sizes
	TPCHSF float64 // TPC-H scale factor (micro units; see internal/tpch)
	Reps   int     // repetitions per cell
	Trim   float64 // fraction trimmed from each side before averaging
	Eps    float64 // default privacy budget
	Beta   float64 // R2T failure probability
	Seed   int64
	Out    io.Writer // destination for rendered tables; nil = io.Discard

	// Verbose streams per-cell progress lines to stderr.
	Verbose bool

	// CellTimeout caps the total time spent on one table cell, mirroring the
	// paper's per-run time limit (it reports "over time limit" for RM on most
	// datasets). Once a rep pushes a cell past the budget, remaining reps are
	// skipped; if even the first rep exceeds it, the cell reports
	// "over time limit". 0 means 120s.
	CellTimeout time.Duration
}

func (c Config) fill() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.TPCHSF == 0 {
		c.TPCHSF = 1
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.Trim == 0 {
		c.Trim = 0.2
	}
	if c.Eps == 0 {
		c.Eps = 0.8
	}
	if c.Beta == 0 {
		c.Beta = 0.1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.CellTimeout == 0 {
		c.CellTimeout = 120 * time.Second
	}
	return c
}

// Cell is one measurement: a trimmed-mean relative error (in %) and the mean
// per-run wall time. Note marks skipped/failed cells.
type Cell struct {
	RelErrPct float64
	Seconds   float64
	Note      string
}

// String renders the cell as "err% / seconds" or its note.
func (c Cell) String() string {
	if c.Note != "" {
		return c.Note
	}
	return fmt.Sprintf("%.3g%% / %.3gs", c.RelErrPct, c.Seconds)
}

// progress emits one status line to stderr when Verbose is set.
func progress(cfg Config, format string, args ...any) {
	if cfg.Verbose {
		fmt.Fprintf(os.Stderr, "[exp] "+format+"\n", args...)
	}
}

// trimmedMean drops ⌈trim·n⌉ smallest and largest values and averages the
// rest — the paper's "remove the best 20 and worst 20 of 100 runs" rule.
func trimmedMean(vals []float64, trim float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(float64(len(s)) * trim)
	s = s[k : len(s)-k]
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total / float64(len(s))
}

// measure runs fn up to Reps times within the cell time budget, collecting
// |estimate − truth|/truth (in %) and the mean duration. fn receives a
// distinct deterministic seed per rep. If even one rep does not fit the
// budget, the cell reports "over time limit" — the paper's protocol.
func measure(cfg Config, truth float64, fn func(seed int64) (float64, error)) (Cell, error) {
	errs := make([]float64, 0, cfg.Reps)
	var total time.Duration
	reps := 0
	for rep := 0; rep < cfg.Reps; rep++ {
		start := time.Now()
		est, err := fn(cfg.Seed + int64(rep)*7919)
		if err != nil {
			return Cell{}, err
		}
		total += time.Since(start)
		reps++
		if truth != 0 {
			errs = append(errs, 100*math.Abs(est-truth)/math.Abs(truth))
		} else {
			errs = append(errs, math.Abs(est-truth))
		}
		if total > cfg.CellTimeout {
			break // keep what we have; skip the remaining reps
		}
	}
	if reps == 0 {
		return Cell{Note: "over time limit"}, nil
	}
	return Cell{
		RelErrPct: trimmedMean(errs, cfg.Trim),
		Seconds:   (total / time.Duration(reps)).Seconds(),
	}, nil
}

// graphTruncator builds the LP truncation operator for a pattern query.
func graphTruncator(g *graph.Graph, p graph.Pattern) *truncation.LPTruncator {
	occ := exec.FromSets("Node", g.N, graph.Occurrences(g, p))
	return truncation.NewLPFromOccurrences(occ)
}

// runR2T executes one R2T invocation over a prepared truncator.
func runR2T(tr truncation.Truncator, gsq, eps, beta float64, seed int64, early bool) (float64, error) {
	out, err := core.Run(tr, core.Config{
		Epsilon:   eps,
		Beta:      beta,
		GSQ:       gsq,
		Noise:     dp.NewSource(seed),
		EarlyStop: early,
	})
	if err != nil {
		return 0, err
	}
	return out.Estimate, nil
}

// Table renders as fixed-width text.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Print renders the table to w.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	printRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Headers)
	printRow(separators(widths))
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

func separators(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		b := make([]byte, w)
		for j := range b {
			b[j] = '-'
		}
		out[i] = string(b)
	}
	return out
}

func fmtFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
