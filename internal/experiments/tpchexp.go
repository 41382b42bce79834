package experiments

import (
	"fmt"
	"time"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/mech"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/storage"
	"r2t/internal/tpch"
	"r2t/internal/truncation"
)

// tpchGSQ is the assumed global sensitivity for the TPC-H queries
// (Section 10.1 uses 10^6).
const tpchGSQ = 1e6

// evalTPCH parses, plans and executes one benchmark query.
func evalTPCH(q tpch.Query, inst *storage.Instance) (*exec.Result, time.Duration, error) {
	parsed, err := sql.Parse(q.SQL)
	if err != nil {
		return nil, 0, err
	}
	p, err := plan.Build(parsed, inst.Schema, schema.PrivateSpec{Primary: q.Primary})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := exec.Run(p, inst)
	return res, time.Since(start), err
}

// Table5 compares R2T and the LS baseline across the ten TPC-H queries
// (paper Table 5).
func Table5(cfg Config) *Table {
	cfg = cfg.fill()
	inst := tpch.Generate(tpch.GenOptions{SF: cfg.TPCHSF, Seed: cfg.Seed})
	t := &Table{
		Title:   fmt.Sprintf("Table 5: TPC-H queries at SF=%g (GSQ=%.0g, ε=%g)", cfg.TPCHSF, tpchGSQ, cfg.Eps),
		Headers: []string{"query", "class", "query result", "eval time s", "R2T err% / s", "LS err% / s"},
	}
	for _, q := range tpch.Queries() {
		res, evalDur, err := evalTPCH(q, inst)
		if err != nil {
			t.Rows = append(t.Rows, []string{q.Name, q.Class, "error: " + err.Error(), "", "", ""})
			continue
		}
		truth := res.TrueAnswer()
		tr := truncation.NewLPFromOccurrences(res)
		r2tCell, err := measure(cfg, truth, func(seed int64) (float64, error) {
			return runR2T(tr, tpchGSQ, cfg.Eps, cfg.Beta, seed, true)
		})
		r2tStr := r2tCell.String()
		if err != nil {
			r2tStr = "error: " + err.Error()
		}

		lsStr := "not supported"
		if q.LSSupported {
			nt, err := truncation.NewNaiveFromOccurrences(res)
			if err == nil {
				lsCell, lerr := measure(cfg, truth, func(seed int64) (float64, error) {
					return mech.LS(nt, tpchGSQ, cfg.Eps, dp.NewSource(seed))
				})
				if lerr == nil {
					lsStr = lsCell.String()
				} else {
					lsStr = "error: " + lerr.Error()
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			q.Name, q.Class, fmtFloat(truth), fmtFloat(evalDur.Seconds()), r2tStr, lsStr,
		})
	}
	t.Print(cfg.Out)
	return t
}

// fig7Queries are the scalability queries of Figures 7 and 8.
var fig7Queries = []string{"Q3", "Q12", "Q20"}

// Fig7 sweeps the data scale over SF·2^{-3..3} for Q3, Q12 and Q20 and
// reports relative error and time for R2T and LS (paper Figure 7).
func Fig7(cfg Config) []*Table {
	cfg = cfg.fill()
	scales := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	var tables []*Table
	for _, name := range fig7Queries {
		q := *tpch.QueryByName(name)
		t := &Table{
			Title:   fmt.Sprintf("Figure 7 (%s): error %% and time vs scale", name),
			Headers: []string{"metric"},
		}
		for _, s := range scales {
			t.Headers = append(t.Headers, fmt.Sprintf("SF=%g", cfg.TPCHSF*s))
		}
		rows := map[string][]string{
			"query result": {"query result"},
			"R2T err%":     {"R2T err%"},
			"R2T time s":   {"R2T time s"},
			"LS err%":      {"LS err%"},
			"LS time s":    {"LS time s"},
		}
		for _, s := range scales {
			inst := tpch.Generate(tpch.GenOptions{SF: cfg.TPCHSF * s, Seed: cfg.Seed})
			res, _, err := evalTPCH(q, inst)
			if err != nil {
				for k := range rows {
					rows[k] = append(rows[k], "error")
				}
				continue
			}
			truth := res.TrueAnswer()
			rows["query result"] = append(rows["query result"], fmtFloat(truth))
			tr := truncation.NewLPFromOccurrences(res)
			cell, err := measure(cfg, truth, func(seed int64) (float64, error) {
				return runR2T(tr, tpchGSQ, cfg.Eps, cfg.Beta, seed, true)
			})
			if err != nil {
				rows["R2T err%"] = append(rows["R2T err%"], "error")
				rows["R2T time s"] = append(rows["R2T time s"], "-")
			} else {
				rows["R2T err%"] = append(rows["R2T err%"], fmtFloat(cell.RelErrPct))
				rows["R2T time s"] = append(rows["R2T time s"], fmtFloat(cell.Seconds))
			}
			nt, nerr := truncation.NewNaiveFromOccurrences(res)
			if nerr != nil {
				rows["LS err%"] = append(rows["LS err%"], "not supported")
				rows["LS time s"] = append(rows["LS time s"], "-")
				continue
			}
			lsCell, lerr := measure(cfg, truth, func(seed int64) (float64, error) {
				return mech.LS(nt, tpchGSQ, cfg.Eps, dp.NewSource(seed))
			})
			if lerr != nil {
				rows["LS err%"] = append(rows["LS err%"], "error")
				rows["LS time s"] = append(rows["LS time s"], "-")
			} else {
				rows["LS err%"] = append(rows["LS err%"], fmtFloat(lsCell.RelErrPct))
				rows["LS time s"] = append(rows["LS time s"], fmtFloat(lsCell.Seconds))
			}
		}
		for _, k := range []string{"query result", "R2T err%", "R2T time s", "LS err%", "LS time s"} {
			t.Rows = append(t.Rows, rows[k])
		}
		t.Print(cfg.Out)
		tables = append(tables, t)
	}
	return tables
}

// Fig8 sweeps the assumed GS_Q from 10^3 to 10^9 for Q3, Q12 and Q20 (paper
// Figure 8): R2T's error grows logarithmically while LS's grows near-linearly.
func Fig8(cfg Config) []*Table {
	cfg = cfg.fill()
	gsqs := []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	inst := tpch.Generate(tpch.GenOptions{SF: cfg.TPCHSF, Seed: cfg.Seed})
	var tables []*Table
	for _, name := range fig7Queries {
		q := *tpch.QueryByName(name)
		res, _, err := evalTPCH(q, inst)
		if err != nil {
			continue
		}
		truth := res.TrueAnswer()
		tr := truncation.NewLPFromOccurrences(res)
		nt, nerr := truncation.NewNaiveFromOccurrences(res)

		t := &Table{
			Title:   fmt.Sprintf("Figure 8 (%s): relative error %% vs GSQ (result %s)", name, fmtFloat(truth)),
			Headers: []string{"mechanism"},
		}
		for _, gsq := range gsqs {
			t.Headers = append(t.Headers, fmt.Sprintf("GSQ=%.0g", gsq))
		}
		r2tRow := []string{"R2T"}
		lsRow := []string{"LS"}
		for _, gsq := range gsqs {
			cell, err := measure(cfg, truth, func(seed int64) (float64, error) {
				return runR2T(tr, gsq, cfg.Eps, cfg.Beta, seed, true)
			})
			if err != nil {
				r2tRow = append(r2tRow, "error")
			} else {
				r2tRow = append(r2tRow, fmtFloat(cell.RelErrPct))
			}
			if nerr != nil {
				lsRow = append(lsRow, "not supported")
				continue
			}
			lsCell, lerr := measure(cfg, truth, func(seed int64) (float64, error) {
				return mech.LS(nt, gsq, cfg.Eps, dp.NewSource(seed))
			})
			if lerr != nil {
				lsRow = append(lsRow, "error")
			} else {
				lsRow = append(lsRow, fmtFloat(lsCell.RelErrPct))
			}
		}
		t.Rows = append(t.Rows, r2tRow, lsRow)
		t.Print(cfg.Out)
		tables = append(tables, t)
	}
	return tables
}
