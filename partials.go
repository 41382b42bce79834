package r2t

import (
	"context"
	"fmt"

	"r2t/internal/mech"
	"r2t/internal/truncation"
)

// Partial is one shard's mergeable contribution to a partition-shaped
// truncator (see internal/truncation/partial.go). A router merges the
// per-shard partials with MergePartials and runs the release mechanism over
// the merged operator — the same type a local evaluation builds; in the
// integer-exact regime the released estimate is bit-identical to evaluating
// the unsharded union of rows.
type Partial = truncation.Partial

// MergePartials combines per-shard partials into the union truncator.
func MergePartials(parts []*Partial) (*truncation.PartitionTruncator, error) {
	return truncation.MergePartials(parts)
}

// QueryPartials is the result of one UNCHARGED sub-query evaluation on a
// shard: the mergeable partials for each release unit, in release order, and
// no noise. The caller (the router) owns the ε accounting — it charges once
// before scattering sub-queries and adds noise only to the merged operator.
// Like every non-released intermediate, partials are raw private data.
type QueryPartials struct {
	// Units holds one partial per release unit, in release order: a plain
	// query has one unit; a signed split has two (positive, then negative);
	// a group-by has one (or two, when signed) per group, in group order.
	Units []*Partial
	// Signed reports that units come in (positive, negative) pairs.
	Signed bool
}

// Partials evaluates a query's mergeable truncation partials WITHOUT
// charging ε or drawing noise. Options are validated exactly as for Query —
// the shard and the router must agree on the public parameters — but only
// the structural fields matter here: no mechanism runs. The resolved
// mechanism must be r2t and the query must be partition-shaped (no
// projection; each join result referencing at most one individual), the same
// structure the partition fast path serves.
func (db *DB) Partials(ctx context.Context, sqlText string, opt Options) (*QueryPartials, error) {
	return db.partials(ctx, sqlText, opt, nil)
}

// GroupPartials is Partials for a group-by release: one unit per group (two
// when the signed split applies), in group order — mirroring QueryGroupBy's
// release order so a router that merges unit-by-unit and draws noise in the
// same order reproduces the unsharded released sequence.
func (db *DB) GroupPartials(ctx context.Context, sqlText string, column string, groups []Value, opt Options) (*QueryPartials, error) {
	return db.partials(ctx, sqlText, opt, &groupSpec{column: column, values: groups})
}

// partials is prepare → evaluate, with each unit's operator handed out in its
// mergeable form.
func (db *DB) partials(ctx context.Context, sqlText string, opt Options, gb *groupSpec) (*QueryPartials, error) {
	p, err := db.prepare(sqlText, opt, gb)
	if err != nil {
		return nil, err
	}
	// Only r2t races a truncation operator that merges across shards, and
	// only the partition shape — which a projection never has — merges at all.
	if p.choice.Mech != mech.MechR2T {
		return nil, fmt.Errorf("r2t: mechanism %q does not produce mergeable partials (only r2t does)", p.choice.Mech)
	}
	if len(p.plan.ProjVars) > 0 {
		return nil, fmt.Errorf("r2t: projection queries have no mergeable partials")
	}
	units, err := db.Evaluate(ctx, p)
	if err != nil {
		return nil, err
	}
	out := &QueryPartials{Units: make([]*Partial, len(units)), Signed: p.signed}
	for i, u := range units {
		pt, ok := u.Op.(*truncation.PartitionTruncator)
		if !ok {
			return nil, fmt.Errorf("r2t: release unit %d is not partition-shaped: its operator (%T) has no mergeable partial", i, u.Op)
		}
		out.Units[i] = pt.Partial()
	}
	return out, nil
}

// ShardCheck verifies that a query is safe to evaluate shard-locally on a
// dataset hash-partitioned on relation partition's primary key. partitionCols
// maps each partitioned relation to the column carrying its owner's key (the
// PK for the partition relation itself, the referencing FK attribute for its
// child relations); relations absent from the map are broadcast to every
// shard. The query is shard-safe when
//
//   - exactly one atom of the completed plan is over a primary private
//     relation, and that relation is the partition relation (so every join
//     result references at most one individual — the partition shape — and
//     that individual determines the owning shard), and
//   - every atom over a partitioned relation joins its partition column to
//     the partition relation's primary-key variable (so all rows a join
//     result touches are co-located on the owner's shard), and
//   - the query has no projection (partials do not merge across groups of
//     join results).
//
// Under these conditions the shard-local joins partition the unsharded join
// exactly: summing per-shard partials loses nothing and counts nothing twice.
func (db *DB) ShardCheck(sqlText string, primary []string, partition string, partitionCols map[string]string) error {
	l, err := db.lower(sqlText, primary, nil)
	if err != nil {
		return err
	}
	return l.ShardCheck(partition, partitionCols)
}

// ShardCheck is DB.ShardCheck on an already-lowered query.
func (l lowered) ShardCheck(partition string, partitionCols map[string]string) error {
	p := l.plan
	if len(p.ProjVars) > 0 {
		return fmt.Errorf("r2t: projection queries are not shardable")
	}
	pkVar, privAtoms := -1, 0
	for i, a := range p.Atoms {
		if p.PrivPK[i] < 0 {
			continue
		}
		privAtoms++
		if a.Rel.Name != partition {
			return fmt.Errorf("r2t: primary private relation %q is not the partition relation %q", a.Rel.Name, partition)
		}
		pkVar = p.PrivPK[i]
	}
	if privAtoms != 1 {
		return fmt.Errorf("r2t: sharded evaluation requires exactly one atom over the partition relation %q, query has %d", partition, privAtoms)
	}
	for _, a := range p.Atoms {
		col, ok := partitionCols[a.Rel.Name]
		if !ok || a.Rel.Name == partition {
			continue
		}
		idx := a.Rel.AttrIndex(col)
		if idx < 0 {
			return fmt.Errorf("r2t: partition column %s.%s does not exist", a.Rel.Name, col)
		}
		if a.Vars[idx] != pkVar {
			return fmt.Errorf("r2t: atom %s does not join its partition column %s to the partition key of %s — join results would span shards", a.Rel.Name, col, partition)
		}
	}
	return nil
}
