package r2t

// The query pipeline (DESIGN.md §17): every entry point of this package, and
// r2td's one admission path, fans out over three stages implemented once here.
//
//	prepare   validate, parse, plan, resolve the mechanism → *Prepared. Reads
//	          the query, the schema and the public parameters, never the
//	          instance; callers that charge ε do so right after it.
//	evaluate  join core → aggregate views → one truncation operator per release
//	          unit. The only stage that reads the instance; a shard hands its
//	          units out in mergeable form (DB.Partials) and a router builds
//	          the same operator type from them (Prepared.MergeUnits).
//	release   the chosen mechanism over each unit: plain, the signed ε/2 pair,
//	          the per-group ε/G split. Reads the units and the noise source.

import (
	"context"
	"fmt"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/mech"
	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// lowered is a query parsed and planned against the schema: the part of
// prepare that needs no Options beyond the primary private relations, and so
// also what Explain, ShardCheck, Sensitivities and ExportReport start from.
type lowered struct {
	parsed *sql.Query
	plan   *plan.Plan
}

// lower is the package's one parse-and-plan site.
func (db *DB) lower(sqlText string, primary []string, rec *obs.Recorder) (lowered, error) {
	stopParse := rec.Time(obs.StageParse)
	parsed, err := sql.Parse(sqlText)
	stopParse()
	if err != nil {
		return lowered{}, err
	}
	stopPlan := rec.Time(obs.StagePlan)
	p, err := plan.Build(parsed, db.schema, schema.PrivateSpec{Primary: primary})
	stopPlan()
	if err != nil {
		return lowered{}, err
	}
	return lowered{parsed: parsed, plan: p}, nil
}

// SQL returns the normalized query text (what r2td's answer cache keys on).
func (l lowered) SQL() string { return l.parsed.String() }

// Prepared is the outcome of the prepare stage for one request: a validated,
// planned query with its mechanism resolved. Everything it exposes — SQL,
// Choice, Options, Explanation, ShardCheck — is a function of the query text,
// the schema and the public parameters alone, so it is identical on
// neighboring instances and safe to act on before any ε is charged. Only
// Prepare constructs one, which is what makes "no invalid request can charge"
// a property of the type: evaluate and release accept nothing else.
//
// A Prepared serves one request: with Options.Profile its recorder
// accumulates across the stages.
type Prepared struct {
	lowered
	opt      Options      // validated, Beta defaulted
	eps      float64      // one release's budget: ε, or ε/G under group-by
	choice   *mech.Choice // resolved against the plan shape at eps
	backend  mech.Backend // the release mechanism choice names
	signed   bool         // AllowNegativeSum on a SUM: units come in (pos, neg) pairs
	groupVar int          // join variable of the group-by column (-1: no group-by)
	groups   []Value
	rec      *obs.Recorder // nil = profiling off
}

// groupSpec is QueryGroupBy's (column, public group list) pair.
type groupSpec struct {
	column string
	values []Value
}

// Prepare runs the prepare stage for a single (possibly signed) release.
func (db *DB) Prepare(sqlText string, opt Options) (*Prepared, error) {
	return db.prepare(sqlText, opt, nil)
}

func (db *DB) prepare(sqlText string, opt Options, gb *groupSpec) (*Prepared, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Beta == 0 {
		opt.Beta = 0.1
	}
	p := &Prepared{opt: opt, eps: opt.Epsilon, groupVar: -1}
	var colRef sql.ColRef
	var err error
	if gb != nil {
		if len(gb.values) == 0 {
			return nil, fmt.Errorf("r2t: group-by needs at least one group value")
		}
		seen := make(map[value.V]int, len(gb.values))
		for i, g := range gb.values {
			if j, dup := seen[g.Key()]; dup {
				return nil, fmt.Errorf("r2t: duplicate group value %v (positions %d and %d): each group would be released twice and charged two ε shares", g, j, i)
			}
			seen[g.Key()] = i
		}
		if colRef, err = parseColumn(gb.column); err != nil {
			return nil, err
		}
		p.groups = gb.values
		p.eps = opt.Epsilon / float64(len(gb.values))
	}
	if opt.Profile {
		p.rec = obs.NewRecorder()
	}
	if p.lowered, err = db.lower(sqlText, opt.Primary, p.rec); err != nil {
		return nil, err
	}
	p.signed = opt.AllowNegativeSum && p.parsed.Agg == sql.AggSum
	if gb != nil {
		if p.groupVar = p.plan.ColVar(colRef); p.groupVar < 0 {
			return nil, fmt.Errorf("r2t: group-by column %q does not name a join column of the query (unknown or ambiguous)", gb.column)
		}
	}
	// The mechanism decision is a pure function of the plan shape and the
	// public parameters, so it is identical on neighboring datasets (DESIGN.md
	// §15). Under group-by it is made once for the whole release, at the
	// per-group ε.
	shape := mech.Shape{
		SelfJoin:     p.plan.SelfJoin(),
		Projection:   len(p.plan.ProjVars) > 0,
		PrivateAtoms: p.plan.PrivateAtoms(),
		SignedSum:    p.signed,
		GroupBy:      gb != nil,
	}
	if ok, why := mech.NaiveApplicable(shape); opt.Naive && !ok {
		return nil, fmt.Errorf("r2t: naive truncation does not apply to this query: %s", why)
	}
	p.choice, err = mech.Choose(shape, mech.Config{
		Mechanism:   opt.Mechanism,
		Epsilon:     p.eps,
		GSQ:         opt.GSQ,
		Beta:        opt.Beta,
		FixedTau:    opt.FixedTau,
		ErrorTarget: opt.ErrorTarget,
	})
	if err != nil {
		return nil, err
	}
	var ok bool
	if p.backend, ok = mech.ByName(p.choice.Mech); !ok {
		return nil, fmt.Errorf("r2t: no backend implements mechanism %q", p.choice.Mech)
	}
	return p, nil
}

// Choice returns the resolved mechanism decision.
func (p *Prepared) Choice() mech.Choice { return *p.choice }

// Options returns the validated options with Beta defaulted.
func (p *Prepared) Options() Options { return p.opt }

// Unit is one release unit: the truncation operator the mechanism runs over
// (nil when the backend reads Q(I) alone: building one is the dominant setup
// cost of a release) plus the non-private diagnostics Answer reports.
type Unit struct {
	Op          truncation.Truncator
	TrueAnswer  float64 // Q(I)
	TauStar     float64 // DS_Q(I) for SJA, IS_Q(I) for SPJA
	NumResults  int     // join results |J(I)|; 0 when merged from shard partials
	Individuals int     // referenced primary-private tuples; likewise
}

// Evaluate runs the evaluate stage on this node: the join core (shared across
// queries of one join structure, DESIGN.md §12) and the units over it.
func (db *DB) Evaluate(ctx context.Context, p *Prepared) ([]Unit, error) {
	c, err := db.coreFor(ctx, p)
	if err != nil {
		return nil, err
	}
	return p.units(c)
}

// coreFor obtains the query's join core, sharing a cached or in-flight probe
// pass when sharing is on (and counting the outcome into the recorder). The
// core is identical to what a dedicated exec run would have produced, so every
// path through it stays bit-compatible with the unshared engine.
func (db *DB) coreFor(ctx context.Context, p *Prepared) (*exec.Core, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := exec.Config{Workers: p.opt.ExecWorkers, Recorder: p.rec}
	if db.cores == nil {
		p.rec.Add(obs.CtrJoinCoreMiss, 1)
		return exec.RunCore(p.plan, db.instance, cfg)
	}
	c, hit, err := db.cores.Get(ctx, p.plan, db.instance, cfg)
	if err != nil {
		return nil, err
	}
	if hit {
		p.rec.Add(obs.CtrJoinCoreHit, 1)
	} else {
		p.rec.Add(obs.CtrJoinCoreMiss, 1)
	}
	return c, nil
}

// results builds the aggregate views over a join core in one build pass, one
// per release unit in release order: one for a plain query, (positive,
// negative) for a signed split, and that per group — in group order — under
// group-by.
func (p *Prepared) results(c *exec.Core) ([]*exec.Result, error) {
	switch {
	case p.groups != nil:
		return c.PartitionedResult(p.plan, p.rec, p.groupVar, p.groups, p.signed)
	case p.signed:
		pos, neg, err := c.SplitResult(p.plan, p.rec)
		return []*exec.Result{pos, neg}, err
	}
	res, err := c.Result(p.plan, p.rec)
	return []*exec.Result{res}, err
}

// units builds each view's truncation operator — only the one the chosen
// backend consumes — timed as the truncation-build stage and wired to the
// recorder for solver counters.
func (p *Prepared) units(c *exec.Core) ([]Unit, error) {
	views, err := p.results(c)
	if err != nil {
		return nil, err
	}
	kind := p.backend.Truncator()
	if kind == mech.TruncLP && p.opt.Naive {
		kind = mech.TruncNaive
	}
	units := make([]Unit, len(views))
	for i, res := range views {
		units[i] = unitOf(res)
		stopBuild := p.rec.Time(obs.StageTruncationBuild)
		switch kind {
		case mech.TruncNaive:
			units[i].Op, err = truncation.NewNaiveFromOccurrences(res)
		case mech.TruncLP:
			// When the capacity rows partition the variables, the closed-form
			// partition truncator stands in for the LP: bit-identical to it
			// on every value (the equivalence gates enforce this).
			if pt := truncation.NewPartitionFromOccurrences(res); pt != nil {
				pt.SetRecorder(p.rec)
				p.rec.Add(obs.CtrPartitionFastPath, 1)
				units[i].Op = pt
			} else {
				lt := truncation.NewLPFromOccurrences(res)
				lt.SetRecorder(p.rec)
				units[i].Op = lt
			}
		}
		stopBuild()
		if err != nil {
			return nil, fmt.Errorf("r2t: naive truncation requested but not applicable: %w", err)
		}
	}
	return units, nil
}

// unitOf starts a unit from an evaluated view: its diagnostics, no operator.
func unitOf(res *exec.Result) Unit {
	answer, tauStar := res.Totals()
	return Unit{TrueAnswer: answer, TauStar: tauStar, NumResults: len(res.Rows), Individuals: len(res.Universe)}
}

// MergeUnits is the router's evaluate stage: shardUnits[s] holds shard s's
// QueryPartials.Units for this query, and unit u of the result is the closed
// form over the union of every shard's unit u (its truncation-build stage) —
// the PartitionTruncator units builds locally, minus the emulation payload.
func (p *Prepared) MergeUnits(shardUnits [][]*Partial) ([]Unit, error) {
	defer p.rec.Time(obs.StageTruncationBuild)()
	units := make([]Unit, p.numUnits())
	parts := make([]*Partial, len(shardUnits))
	for u := range units {
		for s, got := range shardUnits {
			if len(got) != len(units) {
				return nil, fmt.Errorf("r2t: shard reply %d carries %d partial units, want %d", s, len(got), len(units))
			}
			parts[s] = got[u]
		}
		m, err := truncation.MergePartials(parts)
		if err != nil {
			return nil, err
		}
		units[u] = Unit{Op: m, TrueAnswer: m.TrueAnswer(), TauStar: m.TauStar()}
	}
	return units, nil
}

// numUnits is the release-unit count: releases × halves per release.
func (p *Prepared) numUnits() int {
	n := max(len(p.groups), 1)
	if p.signed {
		n *= 2
	}
	return n
}

// Release runs the release stage: the chosen mechanism over the units, drawing
// from noise (nil = a fresh source keyed from the system CSPRNG). It returns
// one Answer per release — one, or one per group in group order — each ε-DP at
// the prepared per-release budget. QueryContext's charge semantics apply: a
// failed or cancelled release has drawn its noise, so its charge stands.
func (p *Prepared) Release(ctx context.Context, units []Unit, noise NoiseSource) ([]*Answer, error) {
	if len(units) != p.numUnits() {
		return nil, fmt.Errorf("r2t: release got %d units, the prepared query has %d", len(units), p.numUnits())
	}
	if noise == nil {
		noise = dp.NewCryptoSource()
	}
	stride := len(units) / max(len(p.groups), 1)
	answers := make([]*Answer, 0, len(units)/stride)
	for i := 0; i < len(units); i += stride {
		ans, err := p.releaseOne(ctx, units[i:i+stride], noise)
		if err != nil && p.groups != nil {
			err = fmt.Errorf("r2t: group %v: %w", p.groups[i/stride], err)
		}
		if err != nil {
			return nil, err
		}
		answers = append(answers, ans)
	}
	// One recorder spans prepare, the shared evaluation and every release, so
	// under group-by each group carries the same whole-evaluation profile.
	prof := p.rec.Snapshot()
	for _, ans := range answers {
		ans.Profile = prof
	}
	return answers, nil
}

// releaseOne releases one unit — or a signed split's (positive, negative)
// pair as Q⁺ − Q⁻, each half at half the budget: ε-DP by basic composition
// and post-processing. A pair's diagnostics report both halves: WinnerTau and
// WinnerTauNeg are the per-half winners, Races carries every race tagged with
// its half, TauStar is the max over the two and the counts add up.
func (p *Prepared) releaseOne(ctx context.Context, halves []Unit, noise NoiseSource) (*Answer, error) {
	ans := &Answer{Mechanism: p.choice.Mech, MechReason: p.choice.Reason, MechBound: p.choice.ErrorBound}
	for h, u := range halves {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := p.backend.Run(u.Op, mech.Params{
			Epsilon:   p.eps / float64(len(halves)),
			GSQ:       p.opt.GSQ,
			Beta:      p.opt.Beta,
			Noise:     noise,
			Rec:       p.rec,
			Answer:    u.TrueAnswer,
			FixedTau:  p.opt.FixedTau,
			Interrupt: ctx.Done(),
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if h == 0 {
			ans.Estimate, ans.TrueAnswer, ans.WinnerTau = out.Estimate, u.TrueAnswer, out.WinnerTau
		} else {
			ans.Estimate -= out.Estimate
			ans.TrueAnswer -= u.TrueAnswer
			ans.WinnerTauNeg = out.WinnerTau
		}
		for _, r := range out.Races {
			if p.signed {
				r.Half = "+-"[h : h+1]
			}
			ans.Races = append(ans.Races, r)
		}
		ans.TauStar = max(ans.TauStar, u.TauStar)
		ans.NumResults += u.NumResults
		ans.Individuals += u.Individuals
		ans.Duration += out.Duration
	}
	return ans, nil
}
