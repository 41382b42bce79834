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
	c, err := runCore(p, inst, cfg)
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
	units, err := c.build(p, viewSpec{}, rec)
	if err != nil {
		return nil, err
	}
	return units[0], nil
}

// SplitResult builds the signed split over the core for a SUM query whose
// expression may go negative: pos carries the rows with ψ ≥ 0 and neg those
// with ψ < 0, ψ negated, so Q(I) = pos.TrueAnswer() − neg.TrueAnswer(). Each
// half is a valid input to a truncation operator; privatizing both (with
// split budget) and subtracting is the standard way to lift the paper's
// ψ ≥ 0 requirement. Projection queries are rejected (COUNT DISTINCT weights
// are always 1).
func (c *Core) SplitResult(p *plan.Plan, rec *obs.Recorder) (pos, neg *Result, err error) {
	units, err := c.build(p, viewSpec{signed: true}, rec)
	if err != nil {
		return nil, nil, err
	}
	return units[0], units[1], nil
}

// PartitionedResult builds the group-by view over the core, partitioning the
// join results by the value of variable groupVar: partition i holds exactly
// the rows an evaluation of p with the extra predicate groupVar = groups[i]
// would produce, in the same order (the predicate is a pointwise filter on a
// bound output column, so filtering after the join selects the same row
// subsequence as pushing it down — see DESIGN.md §10). Rows whose group value
// matches no entry of groups are dropped. Signed, each partition comes as its
// SplitResult pair: the result lists (pos, neg) per group, in group order.
// Duplicate group values are rejected.
func (c *Core) PartitionedResult(p *plan.Plan, rec *obs.Recorder, groupVar int, groups []value.V, signed bool) ([]*Result, error) {
	if groupVar < 0 || groupVar >= p.NumVars {
		return nil, fmt.Errorf("exec: partition variable %d out of range", groupVar)
	}
	groupOf, err := makeGroupOf(groups)
	if err != nil {
		return nil, err
	}
	return c.build(p, viewSpec{signed: signed, groupVar: groupVar, groupOf: groupOf}, rec)
}

// build checks that p matches the core and runs the one build pass.
func (c *Core) build(p *plan.Plan, spec viewSpec, rec *obs.Recorder) ([]*Result, error) {
	if err := c.matches(p); err != nil {
		return nil, err
	}
	return buildFromCore(c, p, spec, rec)
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
