// Package fault is a deterministic failpoint framework for crash-safety and
// chaos testing. Production code declares named injection sites — a call to
// Check (or Fire, for seams that need the rule's payload) at the place where
// an error could plausibly occur — and tests arm rules against those sites
// to deliver errors, panics, or short writes at precisely controlled
// moments: on the Nth hit, after the Nth hit, or with a seeded probability.
//
// The framework is stdlib-only and designed for zero overhead when idle:
// with no rule armed anywhere, Check and Fire reduce to a single atomic
// load and an immediate return, so sites may sit on hot paths (the LP
// solver, the noise source) without measurable cost. Hit counting and rule
// evaluation only happen while at least one rule is armed, which is a
// test-only condition.
//
// Sites are plain strings owned by the package that declares them. The
// sites currently instrumented:
//
//	ledger.open      r2td ledger file open            (internal/wal, prefix "ledger")
//	ledger.read      r2td ledger replay reads
//	ledger.write     r2td ledger appends — honors Short for torn writes
//	ledger.sync      r2td ledger fsync
//	ledger.truncate  r2td ledger torn-tail repair
//	segstore.open      table WAL file open            (internal/wal, prefix "segstore")
//	segstore.read      table WAL replay reads
//	segstore.write     table WAL appends — honors Short for torn writes
//	segstore.sync      table WAL fsync
//	segstore.truncate  table WAL torn-tail repair
//	lp.solve         every exact LP solve             (internal/lp)
//	core.race        the start of each R2T race       (internal/core)
//	dp.laplace       every Laplace noise draw         (internal/dp) — panic payloads only
//	repl.send        every replication frame write    (internal/repl)
//	repl.recv        every replication frame read     (internal/repl)
//	repl.handshake   both ends of the replication handshake (internal/repl)
//
// An err rule armed at repl.send or repl.recv severs every replication
// stream at that direction — the deterministic stand-in for a network
// partition in the failover chaos suite.
//
// Rules are armed programmatically with Enable (tests), or for whole-binary
// chaos runs via the R2T_FAULTS environment variable, parsed once at
// process start:
//
//	R2T_FAULTS='ledger.sync=err,errno=EIO,on=3;lp.solve=panic,msg=boom,prob=0.01,seed=7'
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// Rule describes when a site fires and what it delivers. The zero Rule
// fires on every hit with a generic injected error. The trigger filters
// (OnHit, After, Prob) combine conjunctively; a rule fires only when every
// configured filter agrees.
type Rule struct {
	// Err is the error Check returns (and seams deliver) when the rule
	// fires. A nil Err yields a generic "fault: injected error at <site>".
	Err error

	// Panic, when non-nil, makes Check (and seam helpers) panic with this
	// value instead of returning Err — the injection vector for testing
	// panic containment.
	Panic any

	// Short is a payload for write seams: the number of bytes the seam
	// should actually let through before failing, modeling a torn write.
	// It has no effect on Check itself.
	Short int

	// OnHit fires the rule on exactly the Nth hit of the site (1-based)
	// and never again. 0 disables the filter. A negative OnHit never
	// matches, which turns the armed rule into a pure hit counter for
	// Hits-based assertions.
	OnHit int

	// After fires the rule on every hit strictly after the Nth.
	// 0 disables the filter.
	After int

	// Prob, when positive, fires the rule with this probability per hit,
	// drawn from a PRNG seeded with Seed — deterministic for a fixed seed
	// and hit sequence.
	Prob float64
	// Seed seeds the Prob PRNG.
	Seed int64
}

// site is one armed injection point.
type site struct {
	rule Rule
	hits int
	rng  *rand.Rand
}

var (
	mu    sync.Mutex
	sites map[string]*site
	// armed counts enabled sites; the idle fast path is a single load of it.
	armed atomic.Int32
)

// Active reports whether any rule is armed anywhere. Sites use it (via the
// same atomic the fast path reads) and tests assert on it.
func Active() bool { return armed.Load() > 0 }

// Enable arms rule at the named site, replacing any rule already armed
// there, and returns a function that disarms it. Hit counts start at zero
// each time a rule is armed.
func Enable(name string, rule Rule) (disable func()) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	if _, exists := sites[name]; !exists {
		armed.Add(1)
	}
	s := &site{rule: rule}
	if rule.Prob > 0 {
		s.rng = rand.New(rand.NewSource(rule.Seed))
	}
	sites[name] = s
	return func() { Disable(name) }
}

// Disable disarms the named site. Disarming an unarmed site is a no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := sites[name]; exists {
		delete(sites, name)
		armed.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(sites)))
	sites = nil
}

// Hits returns how many times the named site has been evaluated since its
// rule was armed (0 if unarmed). Arm a Rule{OnHit: -1} to count hits
// without ever firing.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[name]; s != nil {
		return s.hits
	}
	return 0
}

// Fire evaluates the named site: it counts the hit and reports whether the
// armed rule (if any) fires, returning a copy of the rule so seams can read
// payloads like Short. Fire never panics — seams that honor Panic payloads
// must do so themselves (Check does).
//
// The disabled-path cost is one atomic load (Fire and Check are small
// enough for their fast paths to inline into the call site).
func Fire(name string) (Rule, bool) {
	if armed.Load() == 0 {
		return Rule{}, false
	}
	return fireSlow(name)
}

func fireSlow(name string) (Rule, bool) {
	mu.Lock()
	defer mu.Unlock()
	s := sites[name]
	if s == nil {
		return Rule{}, false
	}
	s.hits++
	r := s.rule
	if r.OnHit != 0 && s.hits != r.OnHit {
		return Rule{}, false
	}
	if r.After != 0 && s.hits <= r.After {
		return Rule{}, false
	}
	if r.Prob > 0 && s.rng.Float64() >= r.Prob {
		return Rule{}, false
	}
	if r.Err == nil {
		r.Err = fmt.Errorf("fault: injected error at %s", name)
	}
	return r, true
}

// Check is the standard injection site: it returns the armed rule's error
// when the rule fires (panicking instead when the rule carries a Panic
// payload) and nil otherwise. With nothing armed it costs one atomic load.
func Check(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return checkSlow(name)
}

func checkSlow(name string) error {
	r, ok := fireSlow(name)
	if !ok {
		return nil
	}
	if r.Panic != nil {
		panic(r.Panic)
	}
	return r.Err
}

// panicOnlySites are sites whose seam can deliver only Panic payloads —
// NoiseSource.Laplace returns a bare float64, so an err or short rule armed
// there would be silently ignored. ParseSpec rejects such rules outright
// rather than let a chaos spec believe it is injecting errors. (Enable stays
// permissive: tests legitimately arm payload-less rules like the OnHit:-1
// hit counter.)
var panicOnlySites = map[string]bool{
	"dp.laplace": true,
}

// EnvVar is the environment variable ParseEnv reads at process start.
const EnvVar = "R2T_FAULTS"

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := ParseSpec(spec); err != nil {
			// A malformed chaos spec is a configuration error; failing
			// loudly beats silently running without the requested faults.
			panic(fmt.Sprintf("fault: bad %s: %v", EnvVar, err))
		}
	}
}

// ParseSpec arms rules from a spec string — the R2T_FAULTS grammar:
//
//	spec  := entry (';' entry)*
//	entry := site '=' kind (',' key '=' value)*
//	kind  := 'err' | 'panic' | 'short'
//	key   := 'errno' | 'msg' | 'n' | 'on' | 'after' | 'prob' | 'seed'
//
// kind selects the payload: err delivers an error (errno=EIO|ENOSPC|EBADF
// or msg=<text>), panic panics with msg, short arms a torn write of n
// bytes. on/after/prob/seed set the trigger filters.
func ParseSpec(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, body, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return fmt.Errorf("entry %q: want site=kind[,key=value...]", entry)
		}
		fields := strings.Split(body, ",")
		var r Rule
		msg := ""
		for i, f := range fields {
			if i == 0 {
				switch f {
				case "err", "panic", "short":
				default:
					return fmt.Errorf("site %s: unknown kind %q (want err, panic, or short)", name, f)
				}
				if f != "panic" && panicOnlySites[name] {
					return fmt.Errorf("site %s honors only panic payloads; a %q rule would be silently ignored", name, f)
				}
				continue
			}
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return fmt.Errorf("site %s: field %q: want key=value", name, f)
			}
			var err error
			switch k {
			case "errno":
				switch strings.ToUpper(v) {
				case "EIO":
					r.Err = syscall.EIO
				case "ENOSPC":
					r.Err = syscall.ENOSPC
				case "EBADF":
					r.Err = syscall.EBADF
				default:
					return fmt.Errorf("site %s: unknown errno %q", name, v)
				}
			case "msg":
				msg = v
			case "n":
				r.Short, err = strconv.Atoi(v)
			case "on":
				r.OnHit, err = strconv.Atoi(v)
			case "after":
				r.After, err = strconv.Atoi(v)
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
			case "seed":
				r.Seed, err = strconv.ParseInt(v, 10, 64)
			default:
				return fmt.Errorf("site %s: unknown key %q", name, k)
			}
			if err != nil {
				return fmt.Errorf("site %s: bad %s=%q: %v", name, k, v, err)
			}
		}
		switch fields[0] {
		case "panic":
			if msg == "" {
				msg = "fault: injected panic at " + name
			}
			r.Panic = msg
		case "err", "short":
			if r.Err == nil && msg != "" {
				r.Err = fmt.Errorf("fault: %s", msg)
			}
		}
		Enable(name, r)
	}
	return nil
}
