package r2t

import (
	"context"
	"fmt"

	"r2t/internal/sql"
)

// GroupByAnswer is the result of one group in QueryGroupBy.
type GroupByAnswer struct {
	Group  Value
	Answer *Answer
}

// QueryGroupBy answers a group-by aggregation, implementing the simple
// strategy the paper sketches as future work (Section 11): each group is the
// query with the predicate column = group value appended, and the privacy
// budget is split evenly across groups by basic composition, so the whole
// release is ε-DP.
//
// The join runs ONCE, without the group predicate, and its result rows are
// partitioned by the group column's value. Because that predicate is an
// equality on a join-output column, each partition holds exactly the rows
// the per-group query would produce, in the same order (DESIGN.md §10), so
// every per-group answer — and with a seeded noise source, every released
// value — is identical to running the groups one by one; only the G−1
// redundant joins are gone. The budget split is unchanged.
//
// The group list must be public knowledge (e.g. the domain of a categorical
// attribute such as NATION); deriving it from the private data would leak.
// Duplicate group values are rejected: each duplicate would charge (and
// waste) an extra ε share for a repeated release of the same group. Columns
// are resolved against the query's FROM aliases, so pass the same qualifier
// you would write in SQL ("c.NK" → qualifier "c", attr "NK").
func (db *DB) QueryGroupBy(sqlText string, column string, groups []Value, opt Options) ([]GroupByAnswer, error) {
	return db.QueryGroupByContext(context.Background(), sqlText, column, groups, opt)
}

// QueryGroupByContext is QueryGroupBy with cancellation between (and inside)
// the per-group releases. The same charge semantics as QueryContext apply: a
// cancelled release must be treated as fully charged.
func (db *DB) QueryGroupByContext(ctx context.Context, sqlText string, column string, groups []Value, opt Options) ([]GroupByAnswer, error) {
	p, err := db.prepare(sqlText, opt, &groupSpec{column: column, values: groups})
	if err != nil {
		return nil, err
	}
	units, err := db.Evaluate(ctx, p)
	if err != nil {
		return nil, err
	}
	answers, err := p.Release(ctx, units, opt.Noise)
	if err != nil {
		return nil, err
	}
	out := make([]GroupByAnswer, len(groups))
	for i, g := range groups {
		out[i] = GroupByAnswer{Group: g, Answer: answers[i]}
	}
	return out, nil
}

// parseColumn splits "alias.attr" or "attr" into a column reference.
func parseColumn(column string) (sql.ColRef, error) {
	for i := 0; i < len(column); i++ {
		if column[i] == '.' {
			if i == 0 || i == len(column)-1 {
				return sql.ColRef{}, fmt.Errorf("r2t: malformed column %q", column)
			}
			return sql.ColRef{Qualifier: column[:i], Attr: column[i+1:]}, nil
		}
	}
	if column == "" {
		return sql.ColRef{}, fmt.Errorf("r2t: empty group-by column")
	}
	return sql.ColRef{Attr: column}, nil
}
