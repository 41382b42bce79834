package experiments

import (
	"fmt"
	"math"
	"time"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/graph"
	"r2t/internal/mech"
	"r2t/internal/truncation"
)

// Table1 reports the dataset statistics (paper Table 1) at the configured
// scale: nodes, edges, max degree and the assumed degree bound D.
func Table1(cfg Config) *Table {
	cfg = cfg.fill()
	t := &Table{
		Title:   "Table 1: graph datasets",
		Headers: []string{"dataset", "nodes", "edges", "max degree", "degree bound D"},
	}
	for _, d := range graph.Datasets() {
		g := d.Build(cfg.Scale, cfg.Seed)
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprintf("%d", g.N),
			fmt.Sprintf("%d", g.NumEdges()),
			fmt.Sprintf("%d", g.MaxDegree()),
			fmt.Sprintf("%d", d.D),
		})
	}
	t.Print(cfg.Out)
	return t
}

// graphPatterns are the four benchmark queries of Section 10.2.
var graphPatterns = []graph.Pattern{graph.Edges, graph.Paths2, graph.Triangles, graph.Rectangles}

// Table2 compares R2T against NT, SDE, LP (random τ) and the RM stand-in on
// every query × dataset combination (paper Table 2). Cells report trimmed
// mean relative error and mean time per run.
func Table2(cfg Config) *Table {
	cfg = cfg.fill()
	t := &Table{
		Title:   "Table 2: graph pattern counting (relative error % / time s)",
		Headers: []string{"query", "mechanism"},
	}
	type prepared struct {
		g   *graph.Graph
		d   graph.Dataset
		trs map[graph.Pattern]*truncation.LPTruncator
	}
	var data []prepared
	for _, d := range graph.Datasets() {
		t.Headers = append(t.Headers, d.Name)
		g := d.Build(cfg.Scale, cfg.Seed)
		data = append(data, prepared{g: g, d: d, trs: map[graph.Pattern]*truncation.LPTruncator{}})
	}

	for _, p := range graphPatterns {
		// Truth row.
		truthRow := []string{p.String(), "query result"}
		for i := range data {
			truthRow = append(truthRow, fmtFloat(graph.Count(data[i].g, p)))
		}
		t.Rows = append(t.Rows, truthRow)

		for _, m := range []string{"R2T", "NT", "SDE", "LP", "RM"} {
			row := []string{"", m}
			for i := range data {
				start := time.Now()
				cell := graphCell(cfg, data[i].g, data[i].d, p, m, cfg.Eps)
				row = append(row, cell.String())
				progress(cfg, "table2 %s %s %s: %s (cell took %s)",
					p, data[i].d.Name, m, cell, time.Since(start).Round(time.Millisecond))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Print(cfg.Out)
	return t
}

// graphCell runs one mechanism on one dataset/pattern.
func graphCell(cfg Config, g *graph.Graph, d graph.Dataset, p graph.Pattern, m string, eps float64) Cell {
	truth := graph.Count(g, p)
	gsq := p.GSQ(float64(d.D))
	var tr *truncation.LPTruncator
	if m == "R2T" || m == "LP" {
		tr = graphTruncator(g, p)
	}
	cell, err := measure(cfg, truth, func(seed int64) (float64, error) {
		src := dp.NewSource(seed)
		switch m {
		case "R2T":
			return runR2T(tr, gsq, eps, cfg.Beta, seed, true)
		case "NT":
			theta := RandomTheta(d.D, src)
			return NT(g, p, theta, eps, src), nil
		case "SDE":
			theta := RandomTheta(d.D, src)
			return SDE(g, p, theta, eps, src), nil
		case "LP":
			// Random τ from {2,4,...,GSQ}, the Section 10.1 protocol.
			grid := dp.TauGrid(gsq)
			tau := grid[int(float64(len(grid))*uniformFromSeed(seed))%len(grid)]
			return mech.LPFixedTau(tr, tau, eps, src)
		case "RM":
			occ := exec.FromSets("Node", g.N, graph.Occurrences(g, p))
			return RM(occ, eps, src), nil
		}
		return 0, fmt.Errorf("unknown mechanism %q", m)
	})
	if err != nil {
		return Cell{Note: "error: " + err.Error()}
	}
	return cell
}

// uniformFromSeed maps a seed to a deterministic uniform in [0,1).
func uniformFromSeed(seed int64) float64 {
	x := uint64(seed)*2862933555777941757 + 3037000493
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// Fig6 sweeps ε from 0.1 to 12.8 on roadnetpa-sim for all four queries
// (paper Figure 6), reporting each mechanism's relative error per ε.
func Fig6(cfg Config) []*Table {
	cfg = cfg.fill()
	d := *graph.DatasetByName("roadnetpa-sim")
	g := d.Build(cfg.Scale, cfg.Seed)
	epsValues := []float64{0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8}
	var tables []*Table
	for _, p := range graphPatterns {
		t := &Table{
			Title:   fmt.Sprintf("Figure 6 (%s on roadnetpa-sim): relative error %% vs ε", p),
			Headers: []string{"mechanism"},
		}
		for _, eps := range epsValues {
			t.Headers = append(t.Headers, fmt.Sprintf("ε=%.1f", eps))
		}
		for _, m := range []string{"R2T", "NT", "SDE", "LP"} {
			row := []string{m}
			for _, eps := range epsValues {
				cell := graphCell(cfg, g, d, p, m, eps)
				if cell.Note != "" {
					row = append(row, cell.Note)
				} else {
					row = append(row, fmtFloat(cell.RelErrPct))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		t.Print(cfg.Out)
		tables = append(tables, t)
	}
	return tables
}

// Table3 reproduces the τ-sensitivity study (paper Table 3): the fixed-τ LP
// mechanism on amazon2-sim with τ = GSQ/8^i, versus R2T's adaptive choice.
func Table3(cfg Config) *Table {
	cfg = cfg.fill()
	d := *graph.DatasetByName("amazon2-sim")
	g := d.Build(cfg.Scale, cfg.Seed)
	t := &Table{
		Title:   "Table 3: absolute error of LP with fixed τ vs R2T (amazon2-sim)",
		Headers: []string{"mechanism"},
	}
	for _, p := range graphPatterns {
		t.Headers = append(t.Headers, p.String())
	}

	truthRow := []string{"query result"}
	trs := map[graph.Pattern]*truncation.LPTruncator{}
	for _, p := range graphPatterns {
		trs[p] = graphTruncator(g, p)
		truthRow = append(truthRow, fmtFloat(graph.Count(g, p)))
	}
	t.Rows = append(t.Rows, truthRow)

	r2tRow := []string{"R2T"}
	for _, p := range graphPatterns {
		gsq := p.GSQ(float64(d.D))
		cell, err := measureAbs(cfg, graph.Count(g, p), func(seed int64) (float64, error) {
			return runR2T(trs[p], gsq, cfg.Eps, cfg.Beta, seed, true)
		})
		if err != nil {
			r2tRow = append(r2tRow, "error")
		} else {
			r2tRow = append(r2tRow, fmtFloat(cell))
		}
	}
	t.Rows = append(t.Rows, r2tRow)

	// τ ladder: GSQ, GSQ/8, GSQ/64, ... (stop at 2).
	for i := 0; ; i++ {
		div := math.Pow(8, float64(i))
		row := []string{}
		label := "τ=GSQ"
		if i > 0 {
			label = fmt.Sprintf("τ=GSQ/%d", int64(div))
		}
		row = append(row, label)
		any := false
		for _, p := range graphPatterns {
			gsq := p.GSQ(float64(d.D))
			tau := gsq / div
			if tau < 2 {
				row = append(row, "-")
				continue
			}
			any = true
			cell, err := measureAbs(cfg, graph.Count(g, p), func(seed int64) (float64, error) {
				return mech.LPFixedTau(trs[p], tau, cfg.Eps, dp.NewSource(seed))
			})
			if err != nil {
				row = append(row, "error")
			} else {
				row = append(row, fmtFloat(cell))
			}
		}
		if !any {
			break
		}
		t.Rows = append(t.Rows, row)
	}
	t.Print(cfg.Out)
	return t
}

// measureAbs is measure but reporting trimmed-mean absolute error.
func measureAbs(cfg Config, truth float64, fn func(seed int64) (float64, error)) (float64, error) {
	errs := make([]float64, 0, cfg.Reps)
	for rep := 0; rep < cfg.Reps; rep++ {
		est, err := fn(cfg.Seed + int64(rep)*7919)
		if err != nil {
			return 0, err
		}
		errs = append(errs, math.Abs(est-truth))
	}
	return trimmedMean(errs, cfg.Trim), nil
}

// FigScaling is this repository's addition (not a paper figure): it sweeps
// the graph scale for Q1- and Q△ on deezer-sim and reports R2T's absolute
// and relative error. R2T's error is an absolute quantity (∝ DS·polylog),
// so the relative error shrinks roughly linearly as the data grows — the
// bridge between micro-scale measurements here and the paper's full-size
// sub-1% numbers.
func FigScaling(cfg Config) *Table {
	cfg = cfg.fill()
	d := *graph.DatasetByName("deezer-sim")
	scales := []float64{0.5, 1, 2, 4}
	t := &Table{
		Title:   "Scaling study (ours): R2T error vs dataset scale on deezer-sim",
		Headers: []string{"metric"},
	}
	for _, s := range scales {
		t.Headers = append(t.Headers, fmt.Sprintf("scale %g×", s))
	}
	for _, p := range []graph.Pattern{graph.Edges, graph.Triangles} {
		absRow := []string{fmt.Sprintf("%s abs err", p)}
		relRow := []string{fmt.Sprintf("%s rel err %%", p)}
		sizeRow := []string{fmt.Sprintf("%s result", p)}
		for _, s := range scales {
			g := d.Build(cfg.Scale*s, cfg.Seed)
			truth := graph.Count(g, p)
			tr := graphTruncator(g, p)
			gsq := p.GSQ(float64(d.D))
			abs, err := measureAbs(cfg, truth, func(seed int64) (float64, error) {
				return runR2T(tr, gsq, cfg.Eps, cfg.Beta, seed, true)
			})
			if err != nil {
				absRow = append(absRow, "error")
				relRow = append(relRow, "error")
				sizeRow = append(sizeRow, fmtFloat(truth))
				continue
			}
			absRow = append(absRow, fmtFloat(abs))
			relRow = append(relRow, fmtFloat(100*abs/truth))
			sizeRow = append(sizeRow, fmtFloat(truth))
			progress(cfg, "scaling %s scale %g: abs %.4g rel %.3g%%", p, s, abs, 100*abs/truth)
		}
		t.Rows = append(t.Rows, sizeRow, absRow, relRow)
	}
	t.Print(cfg.Out)
	return t
}

// Table4 measures R2T's runtime with and without the early-stop optimization
// on Q□ across all datasets (paper Table 4).
func Table4(cfg Config) *Table {
	cfg = cfg.fill()
	t := &Table{
		Title:   "Table 4: R2T runtime (s) on Qrect with and without early stop",
		Headers: []string{"variant"},
	}
	type prep struct {
		tr  *truncation.LPTruncator
		gsq float64
	}
	var preps []prep
	for _, d := range graph.Datasets() {
		t.Headers = append(t.Headers, d.Name)
		g := d.Build(cfg.Scale, cfg.Seed)
		preps = append(preps, prep{tr: graphTruncator(g, graph.Rectangles), gsq: graph.Rectangles.GSQ(float64(d.D))})
	}
	timeRow := func(label string, early bool) []string {
		row := []string{label}
		for _, pr := range preps {
			var total time.Duration
			for rep := 0; rep < cfg.Reps; rep++ {
				start := time.Now()
				if _, err := runR2T(pr.tr, pr.gsq, cfg.Eps, cfg.Beta, cfg.Seed+int64(rep), early); err != nil {
					row = append(row, "error")
					continue
				}
				total += time.Since(start)
			}
			row = append(row, fmtFloat((total / time.Duration(cfg.Reps)).Seconds()))
		}
		return row
	}
	with := timeRow("with early stop", true)
	without := timeRow("w/o early stop", false)
	t.Rows = append(t.Rows, with, without)
	speedup := []string{"speed up"}
	for i := 1; i < len(with); i++ {
		var a, b float64
		fmt.Sscanf(with[i], "%g", &a)
		fmt.Sscanf(without[i], "%g", &b)
		if a > 0 {
			speedup = append(speedup, fmt.Sprintf("%.2fx", b/a))
		} else {
			speedup = append(speedup, "-")
		}
	}
	t.Rows = append(t.Rows, speedup)
	t.Print(cfg.Out)
	return t
}
