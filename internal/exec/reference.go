package exec

import (
	"slices"

	"r2t/internal/plan"
	"r2t/internal/storage"
	"r2t/internal/value"
)

// RunReference evaluates a plan by brute-force nested-loop enumeration with
// no indexes, no join ordering, and no pushdown, then builds its view with
// the executor's one build pass. It exists purely as a correctness oracle
// for the hash-join probe pass in tests; it is exponential in the number of
// atoms and must only be used on tiny instances.
func RunReference(p *plan.Plan, inst *storage.Instance) (*Result, error) {
	filters := make([]boolFn, len(p.Filters))
	for i, f := range p.Filters {
		fn, err := compileBool(f.Expr, p)
		if err != nil {
			return nil, err
		}
		filters[i] = fn
	}

	var asgs [][]value.V
	asg := make([]value.V, p.NumVars)
	bound := make([]bool, p.NumVars)
	var recurse func(atom int)
	recurse = func(atom int) {
		if atom == len(p.Atoms) {
			for _, f := range filters {
				if !f(asg) {
					return
				}
			}
			asgs = append(asgs, slices.Clone(asg))
			return
		}
		a := p.Atoms[atom]
		table := inst.Table(a.Rel.Name)
		for _, trow := range table.Rows {
			ok := true
			var newly []int
			for col, v := range a.Vars {
				if bound[v] {
					if !value.Equal(asg[v], trow[col]) {
						ok = false
						break
					}
					continue
				}
				asg[v] = trow[col]
				bound[v] = true
				newly = append(newly, v)
			}
			if ok {
				recurse(atom + 1)
			}
			for _, v := range newly {
				bound[v] = false
			}
		}
	}
	recurse(0)
	units, err := buildFromCore(&Core{p: p, asgs: asgs}, p, viewSpec{}, nil)
	if err != nil {
		return nil, err
	}
	return units[0], nil
}
