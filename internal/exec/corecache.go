package exec

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"r2t/internal/cache"
	"r2t/internal/plan"
	"r2t/internal/storage"
)

// CoreCache shares join cores across queries. The key has two parts:
//
//   - the plan's JoinSignature — the completed FROM/WHERE join structure,
//     deliberately blind to the aggregate expression, primary designation,
//     ε, GSQ and β, so distinct releases over one join collide; and
//   - the version vector of the atoms' tables, read fresh on every lookup
//     through the same (rows, version) snapshot discipline the executor
//     itself uses, so a core built before an Append can never be served
//     after it.
//
// Each signature has one version-checked slot; a slot whose versions moved
// is dropped as an invalidation. Lookups for a (signature, versions) pair
// whose core is being built single-flight: followers block until the
// leader's probe pass finishes, then share its core — the join-level
// coalescing the r2td answer cache cannot provide (its key includes the
// aggregate and the DP parameters).
//
// Privacy: a core is pre-noise, pre-truncation join output and NEVER leaves
// the engine; each release built from it still pays its own ε through the
// unchanged truncation/LP/noise pipeline (DESIGN.md §12).
type CoreCache struct {
	mu    sync.Mutex
	cores *cache.LRU[string, coreSlot] // signature → slot; flights keyed by signature + NUL + versions
}

// coreSlot is one cached core tagged with the version vector it was built at.
type coreSlot struct {
	vkey string
	core *Core
}

// CoreCacheStats reports the cache's traffic. Hits counts probe passes
// skipped by a cached core, Coalesced probe passes skipped by joining an
// in-flight build, Misses probe passes actually run; Evictions counts
// capacity-driven drops and Invalidations version-mismatch (stale) drops.
type CoreCacheStats = cache.Stats

// NewCoreCache returns a cache bounded to at most cap cores (cap < 1 is
// clamped to 1 — a CoreCache exists to share, and the nil cache is the way
// to disable sharing).
func NewCoreCache(cap int) *CoreCache {
	return &CoreCache{cores: cache.NewLRU[string, coreSlot](cap)}
}

// Stats returns a snapshot of the cache's traffic counters.
func (cc *CoreCache) Stats() CoreCacheStats {
	if cc == nil {
		return CoreCacheStats{}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.cores.Stats()
}

// versionKey reads the current version of every atom's table, in atom order.
// Reading the versions sequentially is the same discipline a fresh run's
// snapshot loop follows, so "cached vkey == current vkey" means exactly
// "a fresh run started now could see these same snapshots".
func versionKey(p *plan.Plan, inst *storage.Instance) (string, error) {
	var b strings.Builder
	for i := range p.Atoms {
		t := inst.Table(p.Atoms[i].Rel.Name)
		if t == nil {
			return "", fmt.Errorf("exec: no table for relation %q", p.Atoms[i].Rel.Name)
		}
		b.WriteString(strconv.FormatUint(t.Version(), 10))
		b.WriteByte(';')
	}
	return b.String(), nil
}

// coreVersionKey renders the version vector a finished core was built at.
func coreVersionKey(c *Core) string {
	var b strings.Builder
	for _, ct := range c.tables {
		b.WriteString(strconv.FormatUint(ct.Version, 10))
		b.WriteByte(';')
	}
	return b.String()
}

// Get returns a core for p over inst, sharing whenever it can: a cached core
// at the current table versions is returned immediately; a concurrent build
// of the same (signature, versions) is joined; otherwise the calling
// goroutine runs the probe pass and publishes the result. The second return
// value reports whether the probe pass was skipped (cache hit or coalesced).
// A leader's failure (no table, bad filter) would have hit its followers
// identically, so they share it rather than retry.
//
// The returned core is always one a fresh RunCore could have produced: a
// follower may observe a core built at versions newer than its own reads
// (the leader raced an Append), which is indistinguishable from having
// started the fresh run a moment later.
func (cc *CoreCache) Get(ctx context.Context, p *plan.Plan, inst *storage.Instance, cfg Config) (*Core, bool, error) {
	sig := p.JoinSignature()
	vkey, err := versionKey(p, inst)
	if err != nil {
		return nil, false, err
	}
	cc.mu.Lock()
	if slot, ok := cc.cores.GetFresh(sig, func(s coreSlot) bool { return s.vkey == vkey }); ok {
		cc.mu.Unlock()
		return slot.core, true, nil
	}
	slot, shared, err := cc.cores.Do(ctx, &cc.mu, sig+"\x00"+vkey, func() (coreSlot, error) {
		core, err := runCore(p, inst, cfg)
		if err != nil {
			return coreSlot{}, err
		}
		core.sig = sig
		// Tagged with the versions the core was ACTUALLY built at (an Append
		// may have landed between the vkey read and the snapshots); a lookup
		// at those versions may serve it.
		return coreSlot{vkey: coreVersionKey(core), core: core}, nil
	}, func(s coreSlot) { cc.cores.Put(sig, s) })
	if err != nil {
		return nil, false, err
	}
	return slot.core, shared, nil
}
