package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"r2t/internal/obs"
	"r2t/internal/plan"
	"r2t/internal/storage"
	"r2t/internal/value"
)

// TupleRef identifies one tuple of a primary private relation — one
// individual. With multiple primary private relations the Rel field is the
// namespace of the Section 8 reduction.
type TupleRef struct {
	Rel string
	Key value.V
}

// String renders the individual as relation:key.
func (t TupleRef) String() string { return t.Rel + ":" + t.Key.String() }

// JoinRow is one join result q_k: its weight ψ(q_k) and the individuals it
// references, as indices into Result.Universe.
type JoinRow struct {
	Psi    float64
	RefIDs []int32
}

// Result is the occurrence form of one release unit (Section 9, Figure 3):
// ψ(q_k) plus the referenced individuals per join result — the one object the
// truncation operators read (truncation.Occurrences is this type).
//
// Every view the executor emits — a plain run, either half of a signed split,
// each group of a partitioned run — is built with its own universe: Universe
// lists exactly the individuals the view's rows reference, once each, in
// canonical (Rel, Key) order, so the ids depend on which rows the view holds
// and never on the order the join met them. Each row's RefIDs index it in
// atom order without repeats, and all rows' RefIDs are consecutive windows of
// one slab, each capped at its own length. Generators that bypass the SQL
// engine (FromSets) number their individuals densely instead; either way the
// individual count is len(Universe).
type Result struct {
	Plan     *plan.Plan
	Rows     []JoinRow
	Universe []TupleRef

	// Projection structure, set only for COUNT(DISTINCT ...) queries:
	// Groups[l] lists the row indices whose projection equals p_l (the D_l
	// sets of Section 7), and GroupPsi[l] = ψ(p_l).
	IsProjection bool
	Groups       [][]int
	GroupPsi     []float64
}

// FromSets builds the occurrence form of a workload generated without the
// SQL engine (the graph pattern enumerators, synthetic test inputs): n
// individuals rel:0 … rel:n−1, whose dense ids are their canonical order, and
// one row of weight 1 per set of ids. The sets become the rows' RefIDs as is.
func FromSets(rel string, n int, sets [][]int32) *Result {
	res := &Result{Rows: make([]JoinRow, len(sets)), Universe: make([]TupleRef, n)}
	for j := range res.Universe {
		res.Universe[j] = TupleRef{Rel: rel, Key: value.IntV(int64(j))}
	}
	for k, set := range sets {
		res.Rows[k] = JoinRow{Psi: 1, RefIDs: set}
	}
	return res
}

// Refs resolves row k's interned provenance against the universe. It
// allocates; hot paths should index Universe with RefIDs directly.
func (r *Result) Refs(k int) []TupleRef {
	row := r.Rows[k]
	out := make([]TupleRef, len(row.RefIDs))
	for i, id := range row.RefIDs {
		out[i] = r.Universe[id]
	}
	return out
}

// TrueAnswer returns Q(I): Σψ(q_k) for SJA, Σψ(p_l) for SPJA.
func (r *Result) TrueAnswer() float64 {
	var s float64
	if r.IsProjection {
		for _, w := range r.GroupPsi {
			s += w
		}
		return s
	}
	for _, row := range r.Rows {
		s += row.Psi
	}
	return s
}

// MaxTupleSensitivity returns max_t S_Q(I,t): DS_Q(I) for SJA queries and
// IS_Q(I) (the indirect sensitivity, Section 7) for SPJA queries.
func (r *Result) MaxTupleSensitivity() float64 {
	_, tauStar := r.Totals()
	return tauStar
}

// Totals returns TrueAnswer and MaxTupleSensitivity from one pass over the
// rows, bit for bit.
func (r *Result) Totals() (answer, tauStar float64) {
	sens, answer := r.sensitivities()
	if r.IsProjection {
		answer = r.TrueAnswer()
	}
	for _, s := range sens {
		if s > tauStar {
			tauStar = s
		}
	}
	return answer, tauStar
}

// sensitivities returns S_Q(I, t) per universe id (eq. 4) — the total
// ψ-weight of the join results referencing individual t — and Σψ(q_k), from
// one pass over the rows.
func (r *Result) sensitivities() (sens []float64, sum float64) {
	sens = make([]float64, len(r.Universe))
	for _, row := range r.Rows {
		sum += row.Psi
		for _, id := range row.RefIDs {
			sens[id] += row.Psi
		}
	}
	return sens, sum
}

// SensitivityByTuple returns S_Q(I, t_P) for every individual of the
// universe, keyed by the individual.
func (r *Result) SensitivityByTuple() map[TupleRef]float64 {
	sens, _ := r.sensitivities()
	out := make(map[TupleRef]float64, len(sens))
	for id, s := range sens {
		out[r.Universe[id]] = s
	}
	return out
}

// DownwardSensitivity returns DS_Q(I) exactly. For SJA it equals
// MaxTupleSensitivity; for SPJA it accounts for overlapping contributions:
// removing t only loses the projected results all of whose witnesses
// reference t.
func (r *Result) DownwardSensitivity() float64 {
	if !r.IsProjection {
		return r.MaxTupleSensitivity()
	}
	loss := make([]float64, len(r.Universe))
	for l, group := range r.Groups {
		// Individuals referenced by *every* witness of p_l.
		common := make(map[int32]int)
		for _, k := range group {
			for _, id := range r.Rows[k].RefIDs {
				common[id]++
			}
		}
		for id, c := range common {
			if c == len(group) {
				loss[id] += r.GroupPsi[l]
			}
		}
	}
	var m float64
	for _, v := range loss {
		if v > m {
			m = v
		}
	}
	return m
}

// Config tunes the executor without changing its results.
type Config struct {
	// Workers bounds the probe worker pool. 0 (or negative) means
	// GOMAXPROCS; 1 runs fully serial. Row order — and therefore every
	// downstream LP objective and seeded DP answer — is identical for every
	// setting.
	Workers int

	// Recorder, when non-nil, collects the exec stage timing plus row
	// traffic, index-cache, and arena counters. Pure observation: the
	// produced Result is bit-identical with or without it.
	Recorder *obs.Recorder
}

// Run evaluates p against inst with left-deep hash joins and predicate
// pushdown, producing join rows with provenance.
func Run(p *plan.Plan, inst *storage.Instance) (*Result, error) {
	return RunConfig(p, inst, Config{})
}

// RunConfig is Run with an explicit executor configuration.
func RunConfig(p *plan.Plan, inst *storage.Instance, cfg Config) (*Result, error) {
	c, err := runCore(p, inst, cfg)
	if err != nil {
		return nil, err
	}
	return c.Result(p, cfg.Recorder)
}

// runCore executes the probe pass: the join of the plan's atoms under its
// residual filters, producing the finished variable assignments. Nothing
// here reads the aggregate expression, the primary designation, or any
// privacy parameter — the core is exactly the work that can be shared across
// queries with equal JoinSignatures. The returned Core is immutable.
func runCore(p *plan.Plan, inst *storage.Instance, cfg Config) (*Core, error) {
	rec := cfg.Recorder
	defer rec.Time(obs.StageExec)()

	// Snapshot every atom's table up front: a concurrent Append can land
	// mid-query, and the snapshot pins both the row view (Append only
	// extends, never mutates the shared prefix) and the version the join
	// cache is allowed to store indexes under. Every later row access in
	// this run goes through the snapshot, never tbl.Rows.
	snaps := make([]tableSnap, len(p.Atoms))
	for i := range p.Atoms {
		t := inst.Table(p.Atoms[i].Rel.Name)
		if t == nil {
			return nil, fmt.Errorf("exec: no table for relation %q", p.Atoms[i].Rel.Name)
		}
		rows, ver := t.Snapshot()
		snaps[i] = tableSnap{tbl: t, rows: rows, version: ver}
	}

	// Compile the residual filters.
	filters := make([]boolFn, len(p.Filters))
	for i, f := range p.Filters {
		fn, err := compileBool(f.Expr, p)
		if err != nil {
			return nil, err
		}
		filters[i] = fn
	}

	steps, err := orderSteps(p, snaps)
	if err != nil {
		return nil, err
	}

	// Attach each filter to the earliest step where all its variables bind.
	bound := make([]bool, p.NumVars)
	filterAt := make([][]boolFn, len(steps))
	assigned := make([]bool, len(filters))
	for si := range steps {
		for _, v := range steps[si].newVars {
			bound[v] = true
		}
		for fi, f := range p.Filters {
			if assigned[fi] {
				continue
			}
			ok := true
			for _, v := range f.Vars {
				if !bound[v] {
					ok = false
					break
				}
			}
			if ok {
				filterAt[si] = append(filterAt[si], filters[fi])
				assigned[fi] = true
			}
		}
	}
	for fi := range assigned {
		if !assigned[fi] {
			return nil, fmt.Errorf("exec: filter %d references unbound variables", fi)
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}

	// Join.
	current := [][]value.V{make([]value.V, p.NumVars)} // one empty assignment
	for si, st := range steps {
		snap := snaps[st.atom]
		rec.Add(obs.CtrExecRowsProbed, int64(len(current)))
		current = joinStepExec(current, &steps[si], snap, filterAt[si], p.NumVars, workers, rec)
		rec.Add(obs.CtrExecRowsOut, int64(len(current)))
		if len(current) == 0 {
			break
		}
	}

	c := &Core{p: p, asgs: current, tables: make([]CoreTable, len(snaps))}
	for i, s := range snaps {
		c.tables[i] = CoreTable{Name: p.Atoms[i].Rel.Name, Version: s.version}
	}
	return c, nil
}

// viewSpec selects the release units a build routes rows to: one plain unit;
// a signed split's (ψ ≥ 0, ψ < 0 negated) pair; or, partitioned, that per
// group in group order.
type viewSpec struct {
	signed   bool
	groupVar int               // the partition variable, read when groupOf != nil
	groupOf  map[value.V]int32 // group value key → group index; nil: unpartitioned
}

// buildFromCore is the one pass from a join core to release units, and the
// only code that reads core assignments: it evaluates each row's ψ from the
// plan's SUM expression and routes the row to its unit — the plain view, a
// sign half, a group (× sign) — interning the individuals it references and
// its projection key into that unit as it goes; then each unit renames its
// individuals canonically (unit.finish). It only reads the core, so any
// number of builds — for different aggregates, even concurrently — may share
// one.
func buildFromCore(c *Core, p *plan.Plan, spec viewSpec, rec *obs.Recorder) ([]*Result, error) {
	defer rec.Time(obs.StageExec)()
	isProj := len(p.ProjVars) > 0
	if spec.signed && isProj {
		return nil, fmt.Errorf("exec: signed split does not apply to projection queries")
	}
	var sumFn scalarFn
	if p.SumExpr != nil {
		fn, err := compileScalar(p.SumExpr, p)
		if err != nil {
			return nil, err
		}
		sumFn = fn
	}
	halves, groups := 1, 1
	if spec.signed {
		halves = 2
	}
	if spec.groupOf != nil {
		groups = len(spec.groupOf)
	}
	units := make([]unit, halves*groups)
	for i := range units {
		units[i] = unit{res: &Result{Plan: p, IsProjection: isProj}, ids: make(map[TupleRef]int32)}
		if isProj {
			units[i].proj = make(map[string]int)
		}
	}
	if len(units) == 1 {
		// One unit takes every row: size its rows and ref slab exactly.
		units[0].res.Rows = make([]JoinRow, 0, len(c.asgs))
		units[0].refs = make([]int32, 0, len(c.asgs)*p.PrivateAtoms())
	}
	var keyBuf []byte
	for _, asg := range c.asgs {
		var psi float64 = 1
		if sumFn != nil {
			v := sumFn(asg)
			if !v.IsNumeric() {
				return nil, fmt.Errorf("exec: SUM expression evaluated to non-numeric value %v", v)
			}
			psi = v.AsFloat()
			if psi < 0 && !spec.signed {
				return nil, fmt.Errorf("exec: SUM expression produced negative weight %v (ψ must be non-negative; set AllowNegativeSum to split the query)", psi)
			}
			if math.IsNaN(psi) || math.IsInf(psi, 0) {
				return nil, fmt.Errorf("exec: SUM expression produced non-finite weight")
			}
		}
		u := 0
		if spec.groupOf != nil {
			g, ok := spec.groupOf[asg[spec.groupVar].Key()]
			if !ok {
				continue // in no requested group
			}
			u = int(g) * halves
		}
		if psi < 0 { // signed: the negative half carries −ψ
			u++
			psi = -psi
		}
		keyBuf = units[u].add(p, asg, psi, keyBuf)
	}
	out := make([]*Result, len(units))
	for i := range units {
		out[i] = units[i].finish()
	}
	return out, nil
}

// unit accumulates one release unit during a build: its rows, its own
// individual interner (ids in first-appearance order until finish), the
// rows' RefIDs back to back in one slab, and its projection-key map.
type unit struct {
	res  *Result // Universe holds the interned individuals in id order
	ids  map[TupleRef]int32
	refs []int32
	proj map[string]int // nil unless the query has a projection
}

// add appends one join row: its distinct individuals in atom order and, for
// a projection, its membership in the group of its projected value.
func (u *unit) add(p *plan.Plan, asg []value.V, psi float64, keyBuf []byte) []byte {
	start := len(u.refs)
	for i, pk := range p.PrivPK {
		if pk < 0 {
			continue
		}
		ref := TupleRef{Rel: p.Atoms[i].Rel.Name, Key: asg[pk].Key()}
		id, ok := u.ids[ref]
		if !ok {
			id = int32(len(u.res.Universe))
			u.ids[ref] = id
			u.res.Universe = append(u.res.Universe, ref)
		}
		if !slices.Contains(u.refs[start:], id) {
			u.refs = append(u.refs, id)
		}
	}
	k := len(u.res.Rows)
	// Only the length of RefIDs is final here: finish re-points it into the
	// slab, which a later append may have moved.
	u.res.Rows = append(u.res.Rows, JoinRow{Psi: psi, RefIDs: u.refs[start:]})
	if u.proj != nil {
		keyBuf = keyBuf[:0]
		for _, v := range p.ProjVars {
			keyBuf = appendValueKey(keyBuf, asg[v])
		}
		l, ok := u.proj[string(keyBuf)]
		if !ok {
			l = len(u.res.Groups)
			u.proj[string(keyBuf)] = l
			u.res.Groups = append(u.res.Groups, nil)
			u.res.GroupPsi = append(u.res.GroupPsi, 1) // COUNT(DISTINCT): ψ(p_l)=1
		}
		u.res.Groups[l] = append(u.res.Groups[l], k)
	}
	return keyBuf
}

// finish renames the unit's individuals to canonical (Rel, Key) order and
// points each row's RefIDs at its capped window of the slab.
func (u *unit) finish() *Result {
	res := u.res
	order := res.Universe
	perm := make([]int32, len(order))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return compareRefs(order[a], order[b]) })
	rename := make([]int32, len(order))
	res.Universe = make([]TupleRef, len(order))
	for rank, id := range perm {
		rename[id] = int32(rank)
		res.Universe[rank] = order[id]
	}
	for i, id := range u.refs {
		u.refs[i] = rename[id]
	}
	off := 0
	for k := range res.Rows {
		end := off + len(res.Rows[k].RefIDs)
		res.Rows[k].RefIDs = u.refs[off:end:end]
		off = end
	}
	return res
}

// compareRefs is the canonical order of individuals: by relation, then key.
func compareRefs(a, b TupleRef) int {
	if c := strings.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return value.Compare(a.Key, b.Key)
}

// step describes joining one atom into the current assignment set.
type step struct {
	atom       int
	sharedVars []int    // bound vars appearing in the atom (distinct)
	sharedCols []int    // first atom column per shared var
	checkCols  [][2]int // column pairs that must be equal (repeated vars)
	newVars    []int    // vars newly bound by this atom
	newCols    []int    // first atom column per new var
}

// tableSnap pins one atom's table view for the duration of a run: the row
// slice taken under the table lock and the version it belongs to.
type tableSnap struct {
	tbl     *storage.Table
	rows    []storage.Row
	version uint64
}

// orderSteps picks a greedy left-deep join order: start from the smallest
// user atom, then repeatedly take the atom that shares a variable with the
// bound set (smallest table first), falling back to a cross product. Sizes
// come from the run's snapshots so a concurrent Append cannot skew the
// ordering relative to the rows actually joined.
func orderSteps(p *plan.Plan, snaps []tableSnap) ([]step, error) {
	n := len(p.Atoms)
	used := make([]bool, n)
	bound := make([]bool, p.NumVars)
	size := func(i int) int {
		return len(snaps[i].rows)
	}
	shares := func(i int) bool {
		for _, v := range p.Atoms[i].Vars {
			if bound[v] {
				return true
			}
		}
		return false
	}
	pick := func(requireShare bool) int {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if requireShare && !shares(i) {
				continue
			}
			if best < 0 || size(i) < size(best) {
				best = i
			}
		}
		return best
	}

	var steps []step
	for len(steps) < n {
		i := pick(true)
		if i < 0 {
			i = pick(false)
		}
		if i < 0 {
			return nil, fmt.Errorf("exec: internal error ordering joins")
		}
		used[i] = true
		st := step{atom: i}
		firstCol := make(map[int]int)
		for col, v := range p.Atoms[i].Vars {
			if fc, seen := firstCol[v]; seen {
				st.checkCols = append(st.checkCols, [2]int{fc, col})
				continue
			}
			firstCol[v] = col
			if bound[v] {
				st.sharedVars = append(st.sharedVars, v)
				st.sharedCols = append(st.sharedCols, col)
			} else {
				st.newVars = append(st.newVars, v)
				st.newCols = append(st.newCols, col)
			}
		}
		for _, v := range st.newVars {
			bound[v] = true
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// appendValueKey appends a canonical, collision-free encoding of v.
func appendValueKey(buf []byte, v value.V) []byte {
	v = v.Key()
	buf = append(buf, byte(v.K))
	switch v.K {
	case value.Int:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(v.I))
		buf = append(buf, tmp[:]...)
	case value.Float:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		buf = append(buf, tmp[:]...)
	case value.String:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(len(v.S)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, v.S...)
	}
	return buf
}
