package exec

import (
	"fmt"

	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/storage"
	"r2t/internal/value"
)

// Core is the aggregate-independent half of an executor run: the finished
// variable assignments of the join (FROM + WHERE over pinned table
// snapshots) before any ψ weights, provenance or projection structure are
// attached. Everything that distinguishes one query from another over the
// same join — SUM expression, COUNT(DISTINCT) projection, primary
// designation, ε, GSQ, β — is applied later by Result/SplitResult/
// PartitionedResult, each a cheap O(rows) pass over the shared assignments.
//
// A Core is immutable once built: builds only read asgs, so any number of
// concurrent aggregate evaluations may share one core. That immutability is
// what makes cross-query join sharing (CoreCache) sound.
type Core struct {
	p      *plan.Plan
	sig    string // p.JoinSignature(); "" when built via the unexported path
	asgs   [][]value.V
	tables []CoreTable
}

// CoreTable records the snapshot version one atom's table had when the core
// was built — the invalidation handle: a core is only shareable with a
// request that would snapshot the exact same versions.
type CoreTable struct {
	Name    string
	Version uint64
}

// Tables returns the per-atom snapshot versions the core was built from.
func (c *Core) Tables() []CoreTable { return c.tables }

// NumRows returns the number of join results in the core.
func (c *Core) NumRows() int { return len(c.asgs) }

// RunCore executes only the probe pass of p against inst and returns the
// shareable join core. Composing RunCore with Core.Result is bit-identical
// to RunConfig (same snapshots, same join order, same row order).
func RunCore(p *plan.Plan, inst *storage.Instance, cfg Config) (*Core, error) {
	c, err := runCore(p, inst, runOpts{workers: cfg.Workers, groupVar: -1, rec: cfg.Recorder})
	if err != nil {
		return nil, err
	}
	c.sig = p.JoinSignature()
	return c, nil
}

// matches checks that p drives the same probe pass the core holds. The plan
// that built the core passes by pointer; any other plan must render the same
// JoinSignature — the same completed atoms and residual filters — because
// the build pass indexes the core's assignment slices with p's variable ids.
func (c *Core) matches(p *plan.Plan) error {
	if p == c.p {
		return nil
	}
	sig := c.sig
	if sig == "" {
		sig = c.p.JoinSignature()
	}
	if got := p.JoinSignature(); got != sig {
		return fmt.Errorf("exec: plan does not match join core (signature %q vs %q)", got, sig)
	}
	return nil
}

// Result builds p's aggregate view over the core: exactly what
// RunConfig(p, inst, ...) would return for the snapshots the core pinned.
func (c *Core) Result(p *plan.Plan, rec *obs.Recorder) (*Result, error) {
	if err := c.matches(p); err != nil {
		return nil, err
	}
	res, _, err := buildFromCore(c, p, runOpts{groupVar: -1, rec: rec})
	return res, err
}

// SplitResult builds the signed split over the core for a SUM query whose
// expression may go negative: the pos/neg halves (see Split) of p's view with
// negative ψ allowed. Projection queries are rejected (COUNT DISTINCT weights
// are always 1).
func (c *Core) SplitResult(p *plan.Plan, rec *obs.Recorder) (pos, neg *Result, err error) {
	if len(p.ProjVars) > 0 {
		return nil, nil, fmt.Errorf("exec: signed split does not apply to projection queries")
	}
	if err := c.matches(p); err != nil {
		return nil, nil, err
	}
	full, _, err := buildFromCore(c, p, runOpts{allowNegative: true, groupVar: -1, rec: rec})
	if err != nil {
		return nil, nil, err
	}
	pos, neg = Split(full)
	return pos, neg, nil
}

// PartitionedResult builds the group-by view over the core, partitioning the
// join results by the value of variable groupVar: partition i holds exactly
// the rows an evaluation of p with the extra predicate groupVar = groups[i]
// would produce, in the same order (the predicate is a pointwise filter on a
// bound output column, so filtering after the join selects the same row
// subsequence as pushing it down — see DESIGN.md §10). Rows whose group value
// matches no entry of groups are dropped. All partitions share one Universe.
// Duplicate group values are rejected.
func (c *Core) PartitionedResult(p *plan.Plan, rec *obs.Recorder, groupVar int, groups []value.V, allowNegative bool) ([]*Result, error) {
	if err := c.matches(p); err != nil {
		return nil, err
	}
	if groupVar < 0 || groupVar >= p.NumVars {
		return nil, fmt.Errorf("exec: partition variable %d out of range", groupVar)
	}
	groupOf, err := makeGroupOf(groups)
	if err != nil {
		return nil, err
	}
	full, rowPart, err := buildFromCore(c, p, runOpts{
		allowNegative: allowNegative,
		groupVar:      groupVar,
		groupOf:       groupOf,
		rec:           rec,
	})
	if err != nil {
		return nil, err
	}
	return assemblePartitions(p, full, rowPart, len(groups)), nil
}

// makeGroupOf maps each group value's canonical key to its partition index,
// rejecting duplicates.
func makeGroupOf(groups []value.V) (map[value.V]int32, error) {
	groupOf := make(map[value.V]int32, len(groups))
	for i, g := range groups {
		k := g.Key()
		if _, dup := groupOf[k]; dup {
			return nil, fmt.Errorf("exec: duplicate partition value %v", g)
		}
		groupOf[k] = int32(i)
	}
	return groupOf, nil
}

// assemblePartitions splits a full run into per-group Results sharing one
// Universe, preserving row order and rebuilding projection groups in
// first-appearance order — exactly the order a per-group run would assign
// (see PartitionedResult).
func assemblePartitions(p *plan.Plan, full *Result, rowPart []int32, ngroups int) []*Result {
	parts := make([]*Result, ngroups)
	for i := range parts {
		parts[i] = &Result{Plan: p, Universe: full.Universe, IsProjection: full.IsProjection}
	}
	// For projections, map each row to its full-run projection group so the
	// partitions can rebuild their own Groups in first-appearance order —
	// exactly the order a per-group run's projKeys map would assign.
	var rowProj []int32
	var localGroup [][]int // per partition: full group id → local id + 1
	if full.IsProjection {
		rowProj = make([]int32, len(full.Rows))
		for l, group := range full.Groups {
			for _, k := range group {
				rowProj[k] = int32(l)
			}
		}
		localGroup = make([][]int, ngroups)
		for i := range localGroup {
			localGroup[i] = make([]int, len(full.Groups))
		}
	}
	for k, row := range full.Rows {
		pi := rowPart[k]
		if pi < 0 {
			continue
		}
		part := parts[pi]
		idx := len(part.Rows)
		part.Rows = append(part.Rows, row)
		if full.IsProjection {
			gl := rowProj[k]
			l := localGroup[pi][gl]
			if l == 0 {
				part.Groups = append(part.Groups, nil)
				part.GroupPsi = append(part.GroupPsi, full.GroupPsi[gl])
				l = len(part.Groups)
				localGroup[pi][gl] = l
			}
			part.Groups[l-1] = append(part.Groups[l-1], idx)
		}
	}
	return parts
}
