// Package storage provides in-memory relation instances: row storage, lazy
// hash indexes for joins, integrity checking against the schema's PK/FK
// constraints, and neighbor-instance construction (delete one individual and
// everything that references it) used throughout the DP analysis and tests.
package storage

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"r2t/internal/cache"
	"r2t/internal/schema"
	"r2t/internal/value"
)

// Row is one tuple, in the relation's column order.
type Row []value.V

// ExtendableIndex is implemented by cached build-side join structures
// (internal/exec's tableIndex) that can follow the table through an Append:
// instead of being invalidated wholesale, the entry is asked to extend itself
// over the delta rows and is re-tagged with the new table version. The
// receiver must never be mutated — concurrent queries still probing a prior
// snapshot hold it — so implementations return an immutable successor that
// shares the receiver's internals.
type ExtendableIndex interface {
	// ExtendedTo returns a successor structure covering all of rows, given
	// that the receiver covers a prefix of them. rebuilt reports that the
	// successor was rebuilt from scratch (O(table), the amortization
	// backstop) rather than extended by the delta. ok == false means the
	// receiver cannot follow (e.g. rows is not an extension of what it
	// indexed); the caller drops the cache entry.
	ExtendedTo(rows []Row) (next any, rebuilt, ok bool)
}

// AppendSink is the write-ahead durability hook: when set on a table, every
// Append hands the rows to the sink — which must make them durable or fail —
// before they become visible in memory. An error from the sink aborts the
// Append with the table unchanged, so the in-memory state never runs ahead
// of the durable log (the WAL invariant internal/segstore relies on).
type AppendSink interface {
	AppendRows(rows []Row) error
}

// Table holds the rows of one relation plus lazily built hash indexes.
//
// Concurrency contract: Append and Snapshot are safe to call concurrently
// (the executor snapshots every table before touching any rows, so a query
// racing an Append sees either the old or the new prefix, never a torn
// state). Direct access to Rows and the non-join-cache methods is
// single-writer territory, as before.
type Table struct {
	Rel  *schema.Relation
	Rows []Row

	indexes map[string]map[value.V][]int

	// appendMu serializes writers (Append, InsertChecked) and is held across
	// the sink write AND the in-memory apply, so WAL order equals memory
	// order. It is separate from mu so an fsyncing sink never blocks readers:
	// Snapshot and the join cache only need mu, which writers hold just for
	// the short memory apply.
	appendMu sync.Mutex
	sink     AppendSink

	// mu guards Rows/version updates through Append, the snapshot read, and
	// the join cache (lookups, flights and stores — never a build), so an
	// Append can never tear a reader's view.
	mu      sync.Mutex
	version uint64 // bumped by every Append

	// joinCache holds opaque build-side structures keyed by the executor
	// (per shared-column set), each implicitly tagged with the current table
	// version. On Append, entries implementing ExtendableIndex are extended
	// in place over the delta rows (so they stay valid at the new version —
	// O(delta), the incremental-maintenance fast path); anything else is
	// dropped. JoinCacheAt refuses to serve or store an entry for any other
	// version, so no query ever probes — or poisons the cache with — a stale
	// index. The cache is LRU-bounded at DefaultJoinCacheCap entries: a
	// workload cycling through many distinct join keys evicts the coldest
	// index instead of growing without limit. Guarded by mu.
	joinCache            *cache.LRU[string, any]
	extensions, rebuilds uint64
}

// DefaultJoinCacheCap bounds a table's build-side index cache. Sixteen
// distinct (shared-column-set, check-column-set) keys per table is far beyond
// any workload in the repo; the cap exists so an adversarial or pathological
// stream of distinct join shapes cannot grow the daemon without bound.
const DefaultJoinCacheCap = 16

// CacheStats reports one table's (or instance's) index-cache traffic:
// cache.Stats, where Invalidations counts entries dropped because an Append
// advanced the table version and the entry could not follow, plus
// Extensions — entries that survived an Append by extending over the delta
// rows — of which Rebuilds were full O(table) rebuilds (the compaction
// backstop) rather than O(delta) extensions.
type CacheStats struct {
	cache.Stats
	Extensions uint64 `json:"extensions"`
	Rebuilds   uint64 `json:"rebuilds"`
}

// Add accumulates other into s (for instance-level aggregation).
func (s *CacheStats) Add(other CacheStats) {
	s.Stats.Add(other.Stats)
	s.Extensions += other.Extensions
	s.Rebuilds += other.Rebuilds
}

// NewTable returns an empty table for rel.
func NewTable(rel *schema.Relation) *Table {
	return &Table{Rel: rel, joinCache: cache.NewLRU[string, any](DefaultJoinCacheCap)}
}

// SetAppendSink installs (or, with nil, removes) the write-ahead durability
// sink consulted by every subsequent Append. Call it during loading, before
// the table is shared with concurrent writers.
func (t *Table) SetAppendSink(s AppendSink) {
	t.appendMu.Lock()
	t.sink = s
	t.appendMu.Unlock()
}

// checkArity validates every row's column count against the relation.
func (t *Table) checkArity(rows []Row) error {
	for _, r := range rows {
		if len(r) != len(t.Rel.Attrs) {
			return fmt.Errorf("storage: %s expects %d columns, got %d", t.Rel.Name, len(t.Rel.Attrs), len(r))
		}
	}
	return nil
}

// Append adds rows, checking arity. If an AppendSink is installed the rows
// are made durable first; a sink error aborts with the table unchanged. The
// table version advances so in-flight snapshot-holders cannot write indexes
// built from the old rows back into the cache; cached join indexes that can
// extend themselves over the delta (ExtendableIndex) survive into the new
// version, the rest are invalidated, and any warm attribute indexes are
// extended in place — the per-append maintenance cost is O(len(rows)), not
// O(table).
func (t *Table) Append(rows ...Row) error {
	if err := t.checkArity(rows); err != nil {
		return err
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	return t.appendHeld(rows)
}

// appendHeld is the sink write plus memory apply; callers hold t.appendMu.
func (t *Table) appendHeld(rows []Row) error {
	if t.sink != nil {
		if err := t.sink.AppendRows(rows); err != nil {
			return err
		}
	}
	t.mu.Lock()
	base := len(t.Rows)
	t.Rows = append(t.Rows, rows...)
	t.extendAttrIndexesLocked(base, rows)
	t.extendJoinCacheLocked()
	t.version++
	t.mu.Unlock()
	return nil
}

// extendAttrIndexesLocked folds the delta rows (starting at global position
// base) into every already-built attribute index; callers hold t.mu.
func (t *Table) extendAttrIndexesLocked(base int, rows []Row) {
	for attr, idx := range t.indexes {
		col := t.Rel.AttrIndex(attr)
		for i, row := range rows {
			v := row[col]
			if v.IsNull() {
				continue
			}
			k := v.Key()
			idx[k] = append(idx[k], base+i)
		}
	}
}

// extendJoinCacheLocked carries the join cache across an Append: entries
// implementing ExtendableIndex are replaced by their extended successors (and
// so remain servable at the version bump that follows), everything else is
// dropped and counted as an invalidation. Callers hold t.mu.
func (t *Table) extendJoinCacheLocked() {
	t.joinCache.Retain(func(_ string, v any) (any, bool) {
		ix, ok := v.(ExtendableIndex)
		if !ok {
			return nil, false
		}
		next, rebuilt, ok := ix.ExtendedTo(t.Rows)
		if !ok || next == nil {
			return nil, false
		}
		t.extensions++
		if rebuilt {
			t.rebuilds++
		}
		return next, true
	})
}

// Version returns the current table version without exposing the rows. It is
// the cheap read the join-core cache uses to validate an entry before
// deciding whether a probe pass can be skipped.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Snapshot returns the current rows together with the table version they
// belong to. The returned slice is a stable view: Append only ever extends
// Rows (it never mutates the shared prefix), so a snapshot stays valid while
// concurrent Appends land. Pass the version to JoinCacheAt when caching
// anything derived from the snapshot.
func (t *Table) Snapshot() ([]Row, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Rows, t.version
}

// JoinCacheStats returns a snapshot of the table's join-cache traffic.
func (t *Table) JoinCacheStats() CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return CacheStats{Stats: t.joinCache.Stats(), Extensions: t.extensions, Rebuilds: t.rebuilds}
}

// JoinCacheGetAt returns the cached join structure for key, if present and
// built from the given table version. A hit refreshes the entry's LRU
// position; a miss is not counted here (the caller follows up with
// JoinCacheAt, which counts the build).
func (t *Table) JoinCacheGetAt(key string, version uint64) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.version != version {
		return nil, false
	}
	return t.joinCache.Get(key)
}

// JoinCacheAt returns the join structure for key as seen at the given table
// version, building it with build on first use. The build runs outside the
// table lock, so Append, Snapshot and Version never wait on it; concurrent
// lookups of the same (key, version) wait for one build instead of repeating
// it. The build is stored only if the table is still at version when it
// finishes: one built against a snapshot an Append has since overtaken is
// returned WITHOUT being cached — caching it would poison future queries
// running at the new version. Cached values must be immutable once
// returned: readers use them without synchronization.
//
// Storing may push the cache over DefaultJoinCacheCap, evicting the least
// recently used entry; the second return value is the number of entries
// evicted to make room (for the caller's profiler).
func (t *Table) JoinCacheAt(key string, version uint64, build func() any) (any, int) {
	t.mu.Lock()
	if t.version == version {
		if v, ok := t.joinCache.Get(key); ok {
			t.mu.Unlock()
			return v, 0
		}
	}
	evicted := 0
	flight := key + "\x00" + strconv.FormatUint(version, 10)
	v, _, _ := t.joinCache.Do(context.TODO(), &t.mu, flight, func() (any, error) { return build(), nil }, func(v any) {
		if t.version == version {
			evicted = t.joinCache.Put(key, v)
		}
	})
	return v, evicted
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Rows)
}

// Index returns (building on first use) a hash index from the canonical key
// of column attr to the row positions holding it. Null values are not indexed.
func (t *Table) Index(attr string) (map[value.V][]int, error) {
	col := t.Rel.AttrIndex(attr)
	if col < 0 {
		return nil, fmt.Errorf("storage: %s has no attribute %q", t.Rel.Name, attr)
	}
	if idx, ok := t.indexes[attr]; ok {
		return idx, nil
	}
	idx := make(map[value.V][]int, len(t.Rows))
	for i, row := range t.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		k := v.Key()
		idx[k] = append(idx[k], i)
	}
	if t.indexes == nil {
		t.indexes = make(map[string]map[value.V][]int)
	}
	t.indexes[attr] = idx
	return idx, nil
}

// Instance is a database instance over a schema.
type Instance struct {
	Schema *schema.Schema
	tables map[string]*Table
}

// NewInstance creates an empty instance with one table per schema relation.
func NewInstance(s *schema.Schema) *Instance {
	inst := &Instance{Schema: s, tables: make(map[string]*Table)}
	for _, name := range s.Names() {
		inst.tables[name] = NewTable(s.Relation(name))
	}
	return inst
}

// Table returns the table for relation name, or nil if unknown.
func (inst *Instance) Table(name string) *Table { return inst.tables[name] }

// JoinCacheStats aggregates the build-side index-cache traffic across every
// table of the instance.
func (inst *Instance) JoinCacheStats() CacheStats {
	var s CacheStats
	for _, name := range inst.Schema.Names() {
		s.Add(inst.tables[name].JoinCacheStats())
	}
	return s
}

// Insert appends rows to the named relation.
func (inst *Instance) Insert(relation string, rows ...Row) error {
	t := inst.tables[relation]
	if t == nil {
		return fmt.Errorf("storage: unknown relation %q", relation)
	}
	return t.Append(rows...)
}

// MustInsert is Insert but panics on error; for tests and generators.
func (inst *Instance) MustInsert(relation string, rows ...Row) {
	if err := inst.Insert(relation, rows...); err != nil {
		panic(err)
	}
}

// InsertChecked appends rows to relation after verifying — incrementally,
// against the delta only — that the result still satisfies the schema's
// PK/FK constraints: no null or duplicate primary keys (within the batch or
// against the existing rows) and every non-null foreign key resolving to an
// existing referent. The check uses the tables' warm attribute
// indexes, so its cost is O(len(rows)), not a CheckIntegrity-style O(table)
// rescan. On any violation nothing is appended.
//
// Writers must be externally serialized across relations (the r2td write
// path holds one writer lock per dataset): the FK check reads referenced
// tables' indexes, which a concurrent writer to those tables could be
// extending.
func (inst *Instance) InsertChecked(relation string, rows ...Row) error {
	t := inst.tables[relation]
	if t == nil {
		return fmt.Errorf("storage: unknown relation %q", relation)
	}
	rel := t.Rel
	if err := t.checkArity(rows); err != nil {
		return err
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	if rel.PK != "" {
		col := rel.AttrIndex(rel.PK)
		idx, err := t.Index(rel.PK)
		if err != nil {
			return err
		}
		batchPK := make(map[value.V]bool, len(rows))
		for _, row := range rows {
			v := row[col]
			if v.IsNull() {
				return fmt.Errorf("storage: %s insert has null primary key", relation)
			}
			k := v.Key()
			if len(idx[k]) > 0 || batchPK[k] {
				return fmt.Errorf("storage: %s insert has duplicate primary key %v", relation, v)
			}
			batchPK[k] = true
		}
	}
	for _, fk := range rel.FKs {
		col := rel.AttrIndex(fk.Attr)
		refIdx, err := inst.tables[fk.Ref].Index(inst.Schema.Relation(fk.Ref).PK)
		if err != nil {
			return err
		}
		for _, row := range rows {
			v := row[col]
			if v.IsNull() {
				continue
			}
			if len(refIdx[v.Key()]) == 0 {
				return fmt.Errorf("storage: %s insert FK %s=%v has no referent in %s", relation, fk.Attr, v, fk.Ref)
			}
		}
	}
	return t.appendHeld(rows)
}

// TotalRows returns the number of tuples across all relations.
func (inst *Instance) TotalRows() int {
	n := 0
	for _, t := range inst.tables {
		n += len(t.Rows)
	}
	return n
}

// CheckIntegrity verifies primary-key uniqueness and foreign-key referential
// integrity for every relation.
func (inst *Instance) CheckIntegrity() error {
	for _, name := range inst.Schema.Names() {
		t := inst.tables[name]
		rel := t.Rel
		if rel.PK != "" {
			col := rel.AttrIndex(rel.PK)
			seen := make(map[value.V]bool, len(t.Rows))
			for i, row := range t.Rows {
				k := row[col].Key()
				if row[col].IsNull() {
					return fmt.Errorf("storage: %s row %d has null primary key", name, i)
				}
				if seen[k] {
					return fmt.Errorf("storage: %s has duplicate primary key %v", name, row[col])
				}
				seen[k] = true
			}
		}
		for _, fk := range rel.FKs {
			col := rel.AttrIndex(fk.Attr)
			refIdx, err := inst.tables[fk.Ref].Index(inst.Schema.Relation(fk.Ref).PK)
			if err != nil {
				return err
			}
			for i, row := range t.Rows {
				v := row[col]
				if v.IsNull() {
					continue
				}
				if len(refIdx[v.Key()]) == 0 {
					return fmt.Errorf("storage: %s row %d FK %s=%v has no referent in %s", name, i, fk.Attr, v, fk.Ref)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the instance (rows copied, indexes dropped).
func (inst *Instance) Clone() *Instance {
	out := NewInstance(inst.Schema)
	for name, t := range inst.tables {
		rows := make([]Row, len(t.Rows))
		for i, r := range t.Rows {
			rows[i] = append(Row(nil), r...)
		}
		out.tables[name].Rows = rows
	}
	return out
}

// RemoveIndividual returns a new instance with the tuple of relation rel
// whose primary key equals key removed, together with every tuple (in any
// relation) that directly or indirectly references it — i.e. the
// down-neighbor I' ⊆ I of Section 3.2. The receiver is unchanged.
func (inst *Instance) RemoveIndividual(rel string, key value.V) (*Instance, error) {
	target := inst.Schema.Relation(rel)
	if target == nil {
		return nil, fmt.Errorf("storage: unknown relation %q", rel)
	}
	if target.PK == "" {
		return nil, fmt.Errorf("storage: relation %q has no primary key", rel)
	}

	marked := make(map[string]map[int]bool)       // relation -> row positions to delete
	markedPK := make(map[string]map[value.V]bool) // relation -> PK keys of deleted rows
	mark := func(relName string, rowPos int, pk value.V, hasPK bool) {
		if marked[relName] == nil {
			marked[relName] = make(map[int]bool)
		}
		marked[relName][rowPos] = true
		if hasPK {
			if markedPK[relName] == nil {
				markedPK[relName] = make(map[value.V]bool)
			}
			markedPK[relName][pk.Key()] = true
		}
	}

	// Seed: the individual itself.
	tt := inst.tables[rel]
	pkCol := target.AttrIndex(target.PK)
	for i, row := range tt.Rows {
		if value.Equal(row[pkCol], key) {
			mark(rel, i, row[pkCol], true)
		}
	}

	// Propagate in referenced-first order: by the time we process R, every
	// relation R references has its deleted PK set finalized (FK graph is a DAG).
	for _, name := range inst.Schema.TopoOrder() {
		r := inst.Schema.Relation(name)
		if len(r.FKs) == 0 {
			continue
		}
		t := inst.tables[name]
		hasPK := r.PK != ""
		pkc := -1
		if hasPK {
			pkc = r.AttrIndex(r.PK)
		}
		for _, fk := range r.FKs {
			refMarked := markedPK[fk.Ref]
			if len(refMarked) == 0 {
				continue
			}
			col := r.AttrIndex(fk.Attr)
			for i, row := range t.Rows {
				if marked[name][i] {
					continue
				}
				if !row[col].IsNull() && refMarked[row[col].Key()] {
					var pk value.V
					if hasPK {
						pk = row[pkc]
					}
					mark(name, i, pk, hasPK)
				}
			}
		}
	}

	out := NewInstance(inst.Schema)
	for name, t := range inst.tables {
		dead := marked[name]
		rows := make([]Row, 0, len(t.Rows)-len(dead))
		for i, r := range t.Rows {
			if !dead[i] {
				rows = append(rows, append(Row(nil), r...))
			}
		}
		out.tables[name].Rows = rows
	}
	return out, nil
}
