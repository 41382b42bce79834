package r2t

import (
	"context"
	"fmt"
	"time"
)

// BatchQuery is one query of a QueryBatch: its SQL text and its own full
// Options — every item keeps its own ε, GSQ, β, noise source and primary
// designation, exactly as if issued alone.
type BatchQuery struct {
	SQL string
	Opt Options
}

// QueryBatch evaluates many queries, running each distinct join structure's
// probe pass once: items whose FROM/WHERE lower to the same join signature
// share one join core, and each item then builds its own aggregate view and
// runs its own truncation/LP/noise release. Every answer is bit-identical
// to db.Query of the same item (same seeded noise, same LP answers); only
// the redundant joins are gone. Budget accounting is unchanged — N items
// are N releases, each paying its own ε.
//
// The whole batch is prepared before anything is evaluated, so an invalid
// item fails the batch without any partial evaluation. Any later error also
// fails the whole batch, wrapped with the item's index.
func (db *DB) QueryBatch(ctx context.Context, batch []BatchQuery) ([]*Answer, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("r2t: empty batch")
	}
	fail := func(i int, err error) ([]*Answer, error) {
		return nil, fmt.Errorf("r2t: batch item %d: %w", i, err)
	}
	items := make([]*Prepared, len(batch))
	// Group items by join signature, in first-appearance order.
	groupOf := make(map[string][]int)
	var order []string
	for i, bq := range batch {
		p, err := db.Prepare(bq.SQL, bq.Opt)
		if err != nil {
			return fail(i, err)
		}
		items[i] = p
		sig := p.plan.JoinSignature()
		if _, seen := groupOf[sig]; !seen {
			order = append(order, sig)
		}
		groupOf[sig] = append(groupOf[sig], i)
	}

	answers := make([]*Answer, len(batch))
	for _, sig := range order {
		members := groupOf[sig]
		// One probe pass per group. The leader item (first member) supplies
		// the executor configuration and receives the probe's profile; with
		// the DB-level cache on, the pass may itself be shared with — or
		// borrowed from — concurrent queries outside this batch.
		lead := members[0]
		core, err := db.coreFor(ctx, items[lead])
		if err != nil {
			return fail(lead, err)
		}
		for _, i := range members {
			if err := ctx.Err(); err != nil {
				return fail(i, err)
			}
			start := time.Now()
			units, err := items[i].units(core)
			if err != nil {
				return fail(i, err)
			}
			released, err := items[i].Release(ctx, units, batch[i].Opt.Noise)
			if err != nil {
				return fail(i, err)
			}
			released[0].Duration = time.Since(start)
			answers[i] = released[0]
		}
	}
	return answers, nil
}
