// Package r2t is a differentially private SQL query engine implementing R2T
// — "Race-to-the-Top", the instance-optimal truncation mechanism for SPJA
// queries over databases with foreign-key constraints (Dong, Fang, Yi, Tao,
// Machanavajjhala, SIGMOD 2022).
//
// A DB wraps a schema with PK/FK constraints and an in-memory instance.
// Query evaluates one SPJA query (COUNT(*), COUNT(DISTINCT ...) or SUM(...)
// over selections and joins, including self-joins) under ε-differential
// privacy with respect to a designated set of primary private relations:
// neighboring databases differ in one tuple of a primary private relation
// plus everything that references it, the FK-aware policy of the paper.
//
//	db := r2t.NewDB(schema)
//	db.Insert("Node", r2t.Int(1))
//	...
//	ans, err := db.Query(`SELECT COUNT(*) FROM Edge WHERE src < dst`, r2t.Options{
//		Epsilon: 0.8,
//		GSQ:     1024,
//		Primary: []string{"Node"},
//	})
//
// The released Answer.Estimate is ε-DP. Everything else in Answer
// (TrueAnswer, sensitivities, per-race diagnostics) is computed from the
// private data without noise and is exposed for experiments and debugging
// only — do not release those fields.
package r2t

import (
	"context"
	"io"
	"time"

	"r2t/internal/core"
	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/obs"
	"r2t/internal/schema"
	"r2t/internal/storage"
	"r2t/internal/truncation"
	"r2t/internal/value"
)

// Re-exported building blocks, so the public API is self-contained.
type (
	// Schema is a validated relational schema with PK/FK constraints.
	Schema = schema.Schema
	// Relation declares one relation of a schema.
	Relation = schema.Relation
	// FK declares a foreign-key constraint (Attr references Ref's PK).
	FK = schema.FK
	// Instance is an in-memory database instance.
	Instance = storage.Instance
	// Row is one tuple.
	Row = storage.Row
	// Value is a dynamically typed scalar (int, float, string, null).
	Value = value.V
	// NoiseSource draws the Laplace noise a mechanism adds.
	NoiseSource = dp.NoiseSource
)

// NewSchema validates and returns a schema.
func NewSchema(rels ...*Relation) (*Schema, error) { return schema.New(rels...) }

// MustSchema is NewSchema but panics on error.
func MustSchema(rels ...*Relation) *Schema { return schema.MustNew(rels...) }

// Int, Float and Str build values for Insert.
func Int(i int64) Value     { return value.IntV(i) }
func Float(f float64) Value { return value.FloatV(f) }
func Str(s string) Value    { return value.StringV(s) }

// NewNoiseSource returns a deterministic seeded noise source, for
// reproducible experiments. Production deployments should supply their own
// cryptographically secure NoiseSource.
func NewNoiseSource(seed int64) NoiseSource { return dp.NewSource(seed) }

// DB couples a schema with an instance.
type DB struct {
	schema   *Schema
	instance *Instance

	// cores shares join probe passes across queries whose FROM/WHERE
	// structure matches (nil = sharing off). Sharing is invisible in every
	// released value: a core is version-checked against the tables, each
	// request still runs its own truncation/LP/noise with its own ε, and
	// DESIGN.md §12 argues why the pre-noise core never needs budget.
	cores *exec.CoreCache
}

// DefaultJoinShareCap bounds the DB's join-core cache: the number of
// distinct join structures whose probe results are retained for sharing.
// Cores hold materialized join output, so the cap is deliberately modest;
// raise it with SetJoinShareCap for workloads with many hot join shapes.
const DefaultJoinShareCap = 32

// NewDB creates an empty database over s.
func NewDB(s *Schema) *DB {
	return &DB{schema: s, instance: storage.NewInstance(s), cores: exec.NewCoreCache(DefaultJoinShareCap)}
}

// NewDBWithInstance wraps an existing instance (e.g. from a generator).
func NewDBWithInstance(inst *Instance) *DB {
	return &DB{schema: inst.Schema, instance: inst, cores: exec.NewCoreCache(DefaultJoinShareCap)}
}

// JoinShareStats reports the join-core cache's traffic (see
// exec.CoreCacheStats). Hits and Coalesced are probe passes skipped.
type JoinShareStats = exec.CoreCacheStats

// JoinShareStats returns the DB's join-core cache counters (zero when
// sharing is disabled).
func (db *DB) JoinShareStats() JoinShareStats { return db.cores.Stats() }

// SetJoinShareCap replaces the join-core cache with one bounded to n cores
// (n ≤ 0 disables sharing entirely). Call it at setup time, before the DB
// serves queries: the swap is not synchronized with in-flight evaluations —
// they finish against the cache they started with, but their cores are then
// unreachable through the new one.
func (db *DB) SetJoinShareCap(n int) {
	if n <= 0 {
		db.cores = nil
		return
	}
	db.cores = exec.NewCoreCache(n)
}

// Schema returns the database schema.
func (db *DB) Schema() *Schema { return db.schema }

// Instance returns the underlying instance (private data — handle with care).
func (db *DB) Instance() *Instance { return db.instance }

// Insert appends one tuple to the named relation.
func (db *DB) Insert(relation string, vals ...Value) error {
	return db.instance.Insert(relation, Row(vals))
}

// LoadCSV loads a relation from a CSV file with a header row.
func (db *DB) LoadCSV(relation, path string) error {
	return db.instance.ReadCSVFile(relation, path)
}

// CheckIntegrity verifies PK uniqueness and FK referential integrity.
func (db *DB) CheckIntegrity() error { return db.instance.CheckIntegrity() }

// Race mirrors core.Race: diagnostics for one truncation level.
type Race = core.Race

// Profile is a per-stage breakdown of one evaluation (Options.Profile): wall
// time per pipeline stage plus work counters. Like every Answer diagnostic,
// it is data-dependent and non-private — never release it.
type Profile = obs.Profile

// StageTiming is one stage's share of a Profile.
type StageTiming = obs.StageTiming

// Answer is the outcome of one private query evaluation. Only Estimate is
// ε-DP; the remaining fields are non-private diagnostics.
type Answer struct {
	// Estimate is the released, ε-differentially-private query answer.
	Estimate float64

	// Non-private diagnostics (do not release):

	TrueAnswer float64 // exact query answer Q(I)
	// TauStar is DS_Q(I) for SJA and IS_Q(I) for SPJA — the error scale. For
	// a signed split (AllowNegativeSum) it is the max over the two halves.
	TauStar float64
	// WinnerTau is the τ of the winning race; for a signed split, of the
	// positive half. WinnerTauNeg is the negative half's winner (0 unless
	// AllowNegativeSum split the query). Each Race carries a Half tag
	// ("+"/"-") identifying which half it belongs to.
	WinnerTau    float64
	WinnerTauNeg float64
	Races        []Race // per-τ diagnostics
	NumResults   int    // join results |J(I)|
	Individuals  int    // referenced primary-private tuples
	// Duration is the end-to-end wall time of the evaluation, from parse to
	// release (per group for group-by queries, where parse/plan/exec are
	// shared and the R2T portion is the group's own).
	Duration time.Duration
	// Profile is the per-stage breakdown, set only with Options.Profile.
	Profile *Profile

	// Mechanism is the backend that produced Estimate ("r2t", "laplace",
	// "fixed-tau", "ls"). MechReason explains the selection and MechBound is
	// the mechanism's a-priori (1−β) error bound; both are functions of the
	// query structure and public parameters only (never the data), so unlike
	// the diagnostics above they are safe to show anywhere.
	Mechanism  string
	MechReason string
	MechBound  float64
}

// ExportReport evaluates the rewritten reporting query (Section 9) and
// writes its occurrence form — ψ(q_k) plus the referencing individuals per
// join result — to w, the file handoff of the paper's Figure 3 pipeline.
//
// The output is RAW PRIVATE DATA (it is the input to the DP mechanism, not
// its output); treat the file with the same care as the database itself.
func (db *DB) ExportReport(sqlText string, primary []string, w io.Writer) error {
	l, err := db.lower(sqlText, primary, nil)
	if err != nil {
		return err
	}
	res, err := exec.Run(l.plan, db.instance)
	if err != nil {
		return err
	}
	return truncation.WriteOccurrences(w, res)
}

// Query runs one SPJA query under ε-DP with the R2T mechanism.
func (db *DB) Query(sqlText string, opt Options) (*Answer, error) {
	return db.QueryContext(context.Background(), sqlText, opt)
}

// QueryContext is Query with cancellation: if ctx is cancelled or its
// deadline expires, the evaluation stops between pipeline stages and between
// R2T races and ctx.Err() is returned.
//
// Budget semantics for callers that charge ε up front (QueryWithBudget, the
// r2td server): a cancelled run must still be treated as charged. Noise for
// every race is drawn before the races run, so a partial run has already
// consumed its randomness; refunding ε for cancelled queries would let an
// adversary rerun the mechanism for free by racing deadlines.
func (db *DB) QueryContext(ctx context.Context, sqlText string, opt Options) (*Answer, error) {
	return db.query(ctx, sqlText, opt, nil)
}

// query is the single-release walk: prepare, charge (QueryWithBudget only),
// evaluate, release. The charge sits after the one stage that can reject a
// request without reading data and before the first that reads any.
func (db *DB) query(ctx context.Context, sqlText string, opt Options, budget *Budget) (*Answer, error) {
	start := time.Now()
	p, err := db.Prepare(sqlText, opt)
	if err != nil {
		return nil, err
	}
	if budget != nil {
		if err := budget.Spend(opt.Epsilon); err != nil {
			return nil, err
		}
	}
	units, err := db.Evaluate(ctx, p)
	if err != nil {
		return nil, err
	}
	answers, err := p.Release(ctx, units, opt.Noise)
	if err != nil {
		return nil, err
	}
	answers[0].Duration = time.Since(start)
	return answers[0], nil
}

// ErrorBound returns the Theorem 5.1 utility bound for the given options and
// τ* value: with probability ≥ 1−β the estimate is within this distance
// below the true answer (and never meaningfully above it).
func ErrorBound(opt Options, tauStar float64) float64 {
	return core.ErrorBound(core.Config{Epsilon: opt.Epsilon, Beta: opt.Beta, GSQ: opt.GSQ}, tauStar)
}
