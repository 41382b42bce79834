package r2t

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetAccounting(t *testing.T) {
	b := MustBudget(1.0)
	if b.Remaining() != 1 || b.Spent() != 0 {
		t.Fatal("fresh budget wrong")
	}
	if err := b.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.6); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.01); err == nil {
		t.Fatal("overspend should fail")
	}
	if b.Spent() != 1 {
		t.Fatalf("spent = %g", b.Spent())
	}
	if err := b.Spend(-1); err == nil {
		t.Fatal("negative spend should fail")
	}
	if _, err := NewBudget(0); err == nil {
		t.Fatal("zero budget should fail")
	}

	// Non-finite values never reach the arithmetic: spent+NaN > total is
	// false, so one admitted NaN would admit every later charge.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		committed := false
		if err := b.SpendWith(v, func() error { committed = true; return nil }); err == nil || committed {
			t.Fatalf("SpendWith(%g): err %v, commit hook ran %v", v, err, committed)
		}
		if err := b.AddSpent(v); err == nil {
			t.Fatalf("AddSpent(%g) accepted", v)
		}
		if _, err := NewBudgetWithSpent(v, 0); err == nil {
			t.Fatalf("NewBudgetWithSpent(%g, 0) accepted", v)
		}
		if _, err := NewBudgetWithSpent(1, v); err == nil {
			t.Fatalf("NewBudgetWithSpent(1, %g) accepted", v)
		}
		if spent, rem := b.Balance(); spent != 1 || rem != 0 {
			t.Fatalf("after rejecting %g: spent %g, remaining %g", v, spent, rem)
		}
		if err := b.Spend(0.01); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("after rejecting %g the exhausted budget admitted a spend: %v", v, err)
		}
	}
}

func TestBudgetConcurrentSpend(t *testing.T) {
	b := MustBudget(10)
	var wg sync.WaitGroup
	granted := make(chan struct{}, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Spend(1) == nil {
				granted <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(granted)
	n := 0
	for range granted {
		n++
	}
	if n != 10 {
		t.Fatalf("granted %d spends of ε=1 from a budget of 10", n)
	}
}

// TestBudgetConcurrentInvariant races many spenders against concurrent
// Balance readers: the budget must never overspend, and every snapshot must
// satisfy spent+remaining == total exactly. Run under -race (scripts/check.sh
// does).
func TestBudgetConcurrentInvariant(t *testing.T) {
	const (
		total    = 16.0
		spenders = 64
		perSpend = 0.5
	)
	b := MustBudget(total)
	var spendWG, auditWG sync.WaitGroup
	var granted int64
	stop := make(chan struct{})

	// Concurrent auditors: every atomic snapshot must balance.
	for r := 0; r < 4; r++ {
		auditWG.Add(1)
		go func() {
			defer auditWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spent, remaining := b.Balance()
				if got := spent + remaining; got != total {
					t.Errorf("balance snapshot broken: spent %g + remaining %g = %g, want %g", spent, remaining, got, total)
					return
				}
				if spent > total+1e-12 {
					t.Errorf("overspent: %g of %g", spent, total)
					return
				}
			}
		}()
	}
	for i := 0; i < spenders; i++ {
		spendWG.Add(1)
		go func() {
			defer spendWG.Done()
			if b.Spend(perSpend) == nil {
				atomic.AddInt64(&granted, 1)
			}
		}()
	}
	spendWG.Wait()
	close(stop)
	auditWG.Wait()

	if got := atomic.LoadInt64(&granted); got != int64(total/perSpend) {
		t.Fatalf("granted %d spends of ε=%g from a budget of %g", got, perSpend, total)
	}
	spent, remaining := b.Balance()
	if spent != total || remaining != 0 {
		t.Fatalf("final balance: spent %g remaining %g", spent, remaining)
	}
}

func TestBudgetSpendWith(t *testing.T) {
	b := MustBudget(1)
	committed := 0
	if err := b.SpendWith(0.5, func() error { committed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if committed != 1 || b.Spent() != 0.5 {
		t.Fatalf("commit ran %d times, spent %g", committed, b.Spent())
	}
	// A failing commit aborts the charge entirely.
	errBoom := errors.New("disk full")
	if err := b.SpendWith(0.5, func() error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("want wrapped commit error, got %v", err)
	}
	if b.Spent() != 0.5 {
		t.Fatalf("aborted commit still charged: spent %g", b.Spent())
	}
	// The commit hook must not run at all once the budget is exhausted.
	if err := b.SpendWith(0.6, func() error { committed++; return nil }); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if committed != 1 {
		t.Fatal("commit hook ran for a rejected charge")
	}
}

func TestBudgetReplay(t *testing.T) {
	b, err := NewBudgetWithSpent(2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if spent, remaining := b.Balance(); spent != 1.5 || remaining != 0.5 {
		t.Fatalf("balance after replay: %g/%g", spent, remaining)
	}
	// Replay past the (lowered) total: exhausted, remaining clamped at 0.
	b, err = NewBudgetWithSpent(1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if spent, remaining := b.Balance(); spent != 1.5 || remaining != 0 {
		t.Fatalf("overspent replay balance: %g/%g", spent, remaining)
	}
	if err := b.Spend(0.1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overspent replay should refuse charges, got %v", err)
	}
	if _, err := NewBudgetWithSpent(1, -0.1); err == nil {
		t.Fatal("negative replayed spend should fail")
	}
}

// nonFiniteFields are the Options fields a NaN or ±Inf must be rejected in,
// each set in a context where a finite value would be accepted.
var nonFiniteFields = []struct {
	name string
	set  func(*Options, float64)
}{
	{"epsilon", func(o *Options, v float64) { o.Epsilon = v }},
	{"GSQ", func(o *Options, v float64) { o.GSQ = v }},
	{"beta", func(o *Options, v float64) { o.Beta = v }},
	{"error target", func(o *Options, v float64) { o.Mechanism, o.ErrorTarget = "auto", v }},
	{"fixed tau", func(o *Options, v float64) { o.Mechanism, o.FixedTau = "fixed-tau", v }},
}

// TestInvalidOptionsNeverCharge is the regression test for the shared
// Options.Validate: no invalid-option path may reach the budget. Before
// validation was unified, QueryWithBudget re-implemented only part of
// Query's checks (it never pre-checked Beta), so e.g. an invalid β burned ε
// and then failed inside the mechanism.
func TestInvalidOptionsNeverCharge(t *testing.T) {
	db := graphDB(t, [][2]int64{{0, 1}, {1, 2}}, 3)
	valid := Options{Epsilon: 0.5, GSQ: 16, Primary: []string{"Node"}, Noise: NewNoiseSource(1)}

	type invalidCase struct {
		name   string
		mutate func(*Options)
	}
	invalid := []invalidCase{
		{"zero epsilon", func(o *Options) { o.Epsilon = 0 }},
		{"negative epsilon", func(o *Options) { o.Epsilon = -1 }},
		{"small GSQ", func(o *Options) { o.GSQ = 1 }},
		{"negative beta", func(o *Options) { o.Beta = -0.1 }},
		{"beta one", func(o *Options) { o.Beta = 1 }},
		{"beta above one", func(o *Options) { o.Beta = 2 }},
		{"no primary", func(o *Options) { o.Primary = nil }},
		{"naive signed sum", func(o *Options) { o.Naive = true; o.AllowNegativeSum = true }},
		{"unknown mechanism", func(o *Options) { o.Mechanism = "gaussian" }},
		{"naive non-r2t mechanism", func(o *Options) { o.Naive = true; o.Mechanism = "laplace" }},
		{"error target without auto", func(o *Options) { o.ErrorTarget = 5 }},
		{"fixed tau without fixed-tau", func(o *Options) { o.FixedTau = 4 }},
		{"fixed tau above GSQ", func(o *Options) { o.Mechanism = "fixed-tau"; o.FixedTau = 32 }},
	}
	// Non-finite values: every ordered comparison with NaN is false, so a
	// "x <= 0" style check alone lets them through to the budget arithmetic.
	for _, f := range nonFiniteFields {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			invalid = append(invalid, invalidCase{fmt.Sprintf("%s %g", f.name, v), func(o *Options) { f.set(o, v) }})
		}
	}
	for _, c := range invalid {
		t.Run(c.name, func(t *testing.T) {
			b := MustBudget(1)
			opt := valid
			c.mutate(&opt)
			if err := opt.Validate(); err == nil {
				t.Fatal("Validate accepted invalid options")
			}
			if _, err := db.QueryWithBudget(edgeCount, opt, b); err == nil {
				t.Fatal("QueryWithBudget accepted invalid options")
			}
			if spent, rem := b.Balance(); spent != 0 || rem != 1 {
				t.Fatalf("invalid options charged: spent %g, remaining %g", spent, rem)
			}
			// The budget still bounds later spends.
			if err := b.Spend(2); !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("over-budget spend after the rejection: %v, want ErrBudgetExhausted", err)
			}
			// Query must agree with Validate so the two can't drift.
			if _, err := db.Query(edgeCount, opt); err == nil {
				t.Fatal("Query accepted options Validate rejects")
			}
		})
	}

	// And the valid baseline still works end to end.
	b := MustBudget(1)
	if _, err := db.QueryWithBudget(edgeCount, valid, b); err != nil {
		t.Fatal(err)
	}
	if b.Spent() != 0.5 {
		t.Fatalf("spent %g, want 0.5", b.Spent())
	}
}

func TestQueryWithBudget(t *testing.T) {
	db := graphDB(t, [][2]int64{{0, 1}, {1, 2}}, 3)
	b := MustBudget(2)
	opt := Options{Epsilon: 0.8, GSQ: 16, Primary: []string{"Node"}, Noise: NewNoiseSource(1)}

	if _, err := db.QueryWithBudget(edgeCount, opt, b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryWithBudget(edgeCount, opt, b); err != nil {
		t.Fatal(err)
	}
	// 1.6 spent; a third 0.8 query exceeds 2.
	if _, err := db.QueryWithBudget(edgeCount, opt, b); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	if b.Spent() != 1.6 {
		t.Fatalf("spent = %g, want 1.6 (failed query must not charge)", b.Spent())
	}

	// Static errors must not charge.
	if _, err := db.QueryWithBudget("garbage", opt, b); err == nil {
		t.Fatal("bad SQL should fail")
	}
	if b.Spent() != 1.6 {
		t.Fatalf("static failure charged the budget: %g", b.Spent())
	}
	if _, err := db.QueryWithBudget(edgeCount, opt, nil); err == nil {
		t.Fatal("nil budget should fail")
	}
}
