// Package cache is the one bounded cache under the engine's four caches: the
// join cores (exec.CoreCache), each table's build-side indexes
// (storage.Table), and r2td's free-replay answers and append-id window. It
// has three parts: an LRU bounded by entry count, a single-flight table of
// in-progress computations, and one Stats block. LRU holds all three and is
// guarded by its owner's lock, so an owner can make a lookup, a version check
// and a store one atomic step; Cache is an LRU with a lock of its own.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats is one cache's traffic. Hits counts lookups served from an entry,
// Misses computations run by a flight leader, Coalesced callers that joined a
// leader's flight instead of running their own. Evictions counts entries
// dropped by the entry cap, Invalidations entries dropped because they went
// stale. Entries is the current size.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Coalesced     uint64 `json:"coalesced"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Coalesced += other.Coalesced
	s.Evictions += other.Evictions
	s.Invalidations += other.Invalidations
	s.Entries += other.Entries
}

// ErrLeaderPanicked is what a flight's followers receive when its leader
// panicked; the panic itself continues in the leader.
var ErrLeaderPanicked = errors.New("cache: flight leader panicked")

// LRU maps keys to values, bounded by entry count with the least recently
// used entry evicted first, plus the flights computing values not yet stored.
// It is not safe for concurrent use: call every method with the owner's lock
// held (Flight.Wait is the exception — it must not hold it).
type LRU[K comparable, V any] struct {
	cap     int
	order   list.List // front = most recently used; values are *entry[K, V]
	items   map[K]*list.Element
	flights map[K]*Flight[V]
	stats   Stats
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an empty LRU holding at most cap entries (cap < 1 means 1).
func NewLRU[K comparable, V any](cap int) *LRU[K, V] {
	if cap < 1 {
		cap = 1
	}
	return &LRU[K, V]{cap: cap, items: make(map[K]*list.Element), flights: make(map[K]*Flight[V])}
}

// Get returns key's value and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) { return c.GetFresh(key, nil) }

// GetFresh is Get for entries that can go stale: an entry fresh rejects is
// dropped and counted as an invalidation. A nil fresh accepts every entry.
func (c *LRU[K, V]) GetFresh(key K, fresh func(V) bool) (V, bool) {
	var zero V
	e, ok := c.items[key]
	if !ok {
		return zero, false
	}
	ent := e.Value.(*entry[K, V])
	if fresh != nil && !fresh(ent.val) {
		c.remove(e)
		c.stats.Invalidations++
		return zero, false
	}
	c.stats.Hits++
	c.order.MoveToFront(e)
	return ent.val, true
}

// Put stores val under key as the most recently used entry and evicts least
// recently used entries past the cap; it returns how many it evicted.
func (c *LRU[K, V]) Put(key K, val V) int {
	if e, ok := c.items[key]; ok {
		e.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(e)
		return 0
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	evicted := 0
	for c.order.Len() > c.cap {
		c.remove(c.order.Back())
		c.stats.Evictions++
		evicted++
	}
	return evicted
}

// Retain keeps the entries keep accepts, each replaced by the value keep
// returns, and drops the rest as invalidations.
func (c *LRU[K, V]) Retain(keep func(key K, val V) (V, bool)) {
	for e := c.order.Front(); e != nil; {
		next := e.Next()
		ent := e.Value.(*entry[K, V])
		if v, ok := keep(ent.key, ent.val); ok {
			ent.val = v
		} else {
			c.remove(e)
			c.stats.Invalidations++
		}
		e = next
	}
}

func (c *LRU[K, V]) remove(e *list.Element) {
	c.order.Remove(e)
	delete(c.items, e.Value.(*entry[K, V]).key)
}

// Stats returns the traffic counters and the current entry count.
func (c *LRU[K, V]) Stats() Stats {
	s := c.stats
	s.Entries = len(c.items)
	return s
}

// Flight is one in-progress computation that callers of the same key wait
// on instead of repeating it.
type Flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Claim returns the value the leader registered with Lead. Read it with the
// owner's lock held, before the flight lands.
func (f *Flight[V]) Claim() V { return f.val }

// Wait blocks until the flight lands or ctx is done. It returns the leader's
// value and error, or ctx's error.
func (f *Flight[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Join returns key's flight if one is in progress, counting the caller as
// coalesced, or nil.
func (c *LRU[K, V]) Join(key K) *Flight[V] {
	f := c.flights[key]
	if f != nil {
		c.stats.Coalesced++
	}
	return f
}

// Lead registers a flight for key, carrying claim for joiners to read, and
// counts a miss. The caller must Land it exactly once, on every exit.
func (c *LRU[K, V]) Lead(key K, claim V) *Flight[V] {
	f := &Flight[V]{done: make(chan struct{}), val: claim}
	c.flights[key] = f
	c.stats.Misses++
	return f
}

// Land ends f with the leader's result and releases its followers; key's
// next caller leads afresh.
func (c *LRU[K, V]) Land(key K, f *Flight[V], val V, err error) {
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	f.val, f.err = val, err
	close(f.done)
}

// Do runs fn as key's flight leader, or waits for the flight already in
// progress. mu is the owner's lock: held on entry (typically right after a
// missed Get) and released on return. The leader lands its flight on every
// exit. On success it first calls store under mu, so a caller finds either
// the stored value or the flight, never neither. A panicking fn lands with
// ErrLeaderPanicked and the panic continues. shared reports that the value
// came from another caller's run.
func (c *LRU[K, V]) Do(ctx context.Context, mu sync.Locker, key K, fn func() (V, error), store func(V)) (val V, shared bool, err error) {
	if f := c.Join(key); f != nil {
		mu.Unlock()
		val, err = f.Wait(ctx)
		return val, true, err
	}
	var zero V
	f := c.Lead(key, zero)
	mu.Unlock()
	err = ErrLeaderPanicked
	defer func() {
		mu.Lock()
		if err == nil && store != nil {
			store(val)
		}
		c.Land(key, f, val, err)
		mu.Unlock()
	}()
	val, err = fn()
	return val, false, err
}

// Cache is an LRU with its own lock, for owners with nothing else to guard.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	lru *LRU[K, V]
}

// New returns an empty Cache holding at most cap entries.
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{lru: NewLRU[K, V](cap)}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// Put stores val under key, evicting past the cap.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, val)
}

// Do returns key's stored value, or the value of one run of fn shared by
// every concurrent caller and stored if it succeeds (LRU.Do). shared reports
// a stored or coalesced value rather than this caller's own run.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if v, ok := c.lru.Get(key); ok {
		c.mu.Unlock()
		return v, true, nil
	}
	return c.lru.Do(ctx, &c.mu, key, fn, func(v V) { c.lru.Put(key, v) })
}

// Stats returns the traffic counters and the current entry count.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}
