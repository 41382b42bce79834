package r2t

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBudgetExhausted is wrapped by Spend/SpendWith when the remaining budget
// cannot cover a charge. Match with errors.Is.
var ErrBudgetExhausted = errors.New("r2t: privacy budget exhausted")

// Budget tracks cumulative privacy spend across queries under basic
// composition: every query charged against the budget adds its ε, and once
// the total is exhausted further queries are refused. Safe for concurrent
// use.
//
// Basic composition is conservative but simple; it matches how the paper
// accounts for R2T's internal races and the group-by split (Section 11).
type Budget struct {
	mu    sync.Mutex
	total float64
	spent float64
}

// isFinite reports whether x is neither NaN nor ±Inf. Budget arithmetic must
// never see a non-finite value: spent+NaN > total is false forever after.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// NewBudget creates a budget with the given total ε (> 0).
func NewBudget(totalEpsilon float64) (*Budget, error) {
	return NewBudgetWithSpent(totalEpsilon, 0)
}

// NewBudgetWithSpent reconstructs a budget with some ε already consumed —
// the replay entry point for durable ledgers (the r2td server): the total
// comes from configuration, the spend from an append-only log. spent may
// exceed totalEpsilon (e.g. the configured total was lowered between
// restarts); such a budget is simply exhausted.
func NewBudgetWithSpent(totalEpsilon, spent float64) (*Budget, error) {
	if !isFinite(totalEpsilon) || totalEpsilon <= 0 {
		return nil, fmt.Errorf("r2t: budget must be positive and finite, got %g", totalEpsilon)
	}
	if !isFinite(spent) || spent < 0 {
		return nil, fmt.Errorf("r2t: replayed spend must be finite and non-negative, got %g", spent)
	}
	return &Budget{total: totalEpsilon, spent: spent}, nil
}

// MustBudget is NewBudget but panics on error.
func MustBudget(totalEpsilon float64) *Budget {
	b, err := NewBudget(totalEpsilon)
	if err != nil {
		panic(err)
	}
	return b
}

// Spend charges eps against the budget, failing (and charging nothing) if
// the remainder is insufficient.
func (b *Budget) Spend(eps float64) error { return b.SpendWith(eps, nil) }

// SpendWith atomically admits a charge of eps and runs commit while the
// charge is still revocable: commit is invoked under the budget lock after
// the admission check, and a commit error aborts the spend entirely. This is
// the durability hook for write-ahead ledgers — logging the charge (commit)
// and admitting it (spend) happen as one atomic step, ordered so that a
// crash can lose an unlogged admission attempt but can never admit a charge
// that was not durably logged first. A nil commit reduces to Spend.
func (b *Budget) SpendWith(eps float64, commit func() error) error {
	if !isFinite(eps) || eps <= 0 {
		return fmt.Errorf("r2t: cannot spend non-positive or non-finite ε %g", eps)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spent+eps > b.total+1e-12 {
		return fmt.Errorf("%w: %g spent of %g, query needs %g", ErrBudgetExhausted, b.spent, b.total, eps)
	}
	if commit != nil {
		if err := commit(); err != nil {
			return fmt.Errorf("r2t: budget commit hook failed, charge aborted: %w", err)
		}
	}
	b.spent += eps
	return nil
}

// AddSpent records eps of spend that was admitted elsewhere — the streaming
// counterpart of NewBudgetWithSpent's replay, used by r2td replicas applying
// their primary's ledger. Unlike Spend it never fails on exhaustion: the
// charge was already admitted by the authoritative node, so the replica's
// view must reflect it even past the local total (the budget then simply
// reads exhausted, exactly like an over-replayed ledger at startup).
func (b *Budget) AddSpent(eps float64) error {
	if !isFinite(eps) || eps <= 0 {
		return fmt.Errorf("r2t: cannot add non-positive or non-finite replicated spend %g", eps)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spent += eps
	return nil
}

// Total returns the configured total ε.
func (b *Budget) Total() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Remaining returns the unspent ε (never negative).
func (b *Budget) Remaining() float64 {
	_, rem := b.Balance()
	return rem
}

// Spent returns the ε consumed so far.
func (b *Budget) Spent() float64 {
	spent, _ := b.Balance()
	return spent
}

// Balance returns spent and remaining ε as one atomic snapshot, so
// spent+remaining always equals the total even under concurrent Spend calls
// (separate Spent and Remaining calls can interleave with a spend).
// Remaining is clamped at 0 for budgets replayed past their total.
func (b *Budget) Balance() (spent, remaining float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	remaining = b.total - b.spent
	if remaining < 0 {
		remaining = 0
	}
	return b.spent, remaining
}

// QueryWithBudget runs Query after charging opt.Epsilon against the budget.
// Static failures (bad SQL, unknown relations, invalid options, a mechanism
// that does not apply to the query's structure) are detected before charging
// — the whole prepare stage runs first, and it never touches the instance, so
// no invalid request ever burns ε — but once the charge is admitted it
// stands, even if evaluation later fails or is cancelled.
func (db *DB) QueryWithBudget(sqlText string, opt Options, budget *Budget) (*Answer, error) {
	if budget == nil {
		return nil, fmt.Errorf("r2t: nil budget")
	}
	return db.query(context.Background(), sqlText, opt, budget)
}
