// Router tier for sharded datasets (DESIGN.md §16).
//
// A sharded dataset's rows are hash-partitioned on the partition relation's
// primary key across shard nodes, each a full r2td primary. The router holds
// the schema, the shard map, and — crucially — the ONLY ε-ledger that
// matters: it charges each admitted request exactly once, BEFORE scattering,
// and the shards evaluate uncharged, noise-free sub-queries whose truncation
// partials merge into the unsharded operator. Charging before the scatter is
// what makes retries and hedging free (a sub-query consumes no ε, so the
// router may race duplicates), and what keeps a failed scatter on the safe
// side of the accounting: the ε stands, the answer doesn't (exactly the
// engine's cancelled-run discipline — refunds would allow free re-runs).
package server

import (
	"context"
	"errors"
	"fmt"

	"r2t"
	"r2t/internal/mech"
	"r2t/internal/shard"
)

// errShardScatter marks a scatter that did not gather every shard's partial.
// The charge stands; classifyError maps it to 503 + Retry-After.
var errShardScatter = errors.New("r2td: sharded evaluation failed (the charged ε stands)")

// shardGates are the structural conditions a sharded dataset puts on a
// prepared query, checked charge-free ahead of the shared leader closure.
func shardGates(ds *Dataset, prep *r2t.Prepared) error {
	// Only r2t's truncation partials merge across shards; every other
	// mechanism needs the whole instance in one place.
	if m := prep.Choice().Mech; m != mech.MechR2T {
		return fmt.Errorf("mechanism %q cannot run on sharded dataset %q (partials merge only under r2t)", m, ds.Name)
	}
	// The privacy unit must be the partition relation: rows are co-located by
	// ITS key, so that is the only primary set under which per-shard partials
	// partition the join.
	if primary := prep.Options().Primary; len(primary) != 1 || primary[0] != ds.Routing.Partition {
		return fmt.Errorf("sharded dataset %q supports primary=[%q] only, got %v", ds.Name, ds.Routing.Partition, primary)
	}
	// Static shardability: every join must pin its partition column to the
	// partition key, so no join result spans shards.
	return prep.ShardCheck(ds.Routing.Partition, ds.Routing.PartitionCols())
}

// scatter is the router's evaluate stage: it sends the uncharged sub-query to
// every shard and merges the gathered partials into the union operator. Any
// shard failing (after the pool's hedged retries) fails the whole evaluation
// — a merge over a subset of shards would silently undercount.
func (s *Server) scatter(ctx context.Context, ds *Dataset, sqlText string, prep *r2t.Prepared) ([]r2t.Unit, error) {
	opt := prep.Options()
	payload := shard.EncodeSubQuery(shard.SubQuery{
		Dataset: ds.Name,
		SQL:     sqlText,
		Primary: opt.Primary,
		Epsilon: opt.Epsilon,
		GSQ:     opt.GSQ,
		Beta:    opt.Beta,
	})
	raws, err := ds.Pool.Scatter(ctx, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errShardScatter, err)
	}
	parts := make([][]*r2t.Partial, len(raws))
	for i, raw := range raws {
		reply, err := shard.DecodeReply(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %q: %v", errShardScatter, ds.Pool.Node(i).Name, err)
		}
		if reply.Err != "" {
			// An application-level shard failure is data-dependent (it ran the
			// evaluation); surface it as the uniform internal error, charged.
			return nil, fmt.Errorf("shard %q sub-query failed: %s", ds.Pool.Node(i).Name, reply.Err)
		}
		parts[i] = reply.Units
	}
	return prep.MergeUnits(parts)
}

// serveShardSubQuery is the shard-side half: the repl hub calls it for each
// TypeSubQuery frame. The evaluation is UNCHARGED and noise-free — it
// produces mergeable partials, raw private data that travels only on the
// operator-side replication plane, never to analysts. Application failures
// ride inside the reply so the connection stays reusable; only an
// undecodable request (a transport fault) errors the connection.
func (s *Server) serveShardSubQuery(payload []byte) ([]byte, error) {
	q, err := shard.DecodeSubQuery(payload)
	if err != nil {
		return nil, err
	}
	appErr := func(err error) []byte { return shard.EncodeReply(shard.Reply{Err: err.Error()}) }
	ds := s.reg.Get(q.Dataset)
	if ds == nil {
		return appErr(fmt.Errorf("unknown dataset %q", q.Dataset)), nil
	}
	opt := r2t.Options{
		Epsilon:          q.Epsilon,
		GSQ:              q.GSQ,
		Beta:             q.Beta,
		Primary:          q.Primary,
		AllowNegativeSum: q.Signed,
		Mechanism:        mech.MechR2T,
		ExecWorkers:      s.execWorkers,
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	qp, err := ds.DB.Partials(ctx, q.SQL, opt)
	if err != nil {
		return appErr(err), nil
	}
	s.metrics.subQueryServed()
	return shard.EncodeReply(shard.Reply{Units: qp.Units}), nil
}
