package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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

// Result is the evaluated reporting query (Section 9): everything the
// truncation operators need.
//
// Provenance is interned: Universe lists every referenced individual once,
// in first-appearance order over the rows, and each row carries indices into
// it. Results produced from the same run (Split halves, PartitionedResult
// partitions) share one Universe, so a Result's rows may reference only a
// subset of it — per-result aggregates (NumIndividuals, SortedTupleRefs, …)
// count only individuals that actually occur in the rows.
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

// sensByID accumulates S_Q(I, t) per universe id, and which ids occur in
// the rows at all (the universe can be a superset for shared-run results).
func (r *Result) sensByID() (sens []float64, occurs []bool) {
	sens = make([]float64, len(r.Universe))
	occurs = make([]bool, len(r.Universe))
	for _, row := range r.Rows {
		for _, id := range row.RefIDs {
			sens[id] += row.Psi
			occurs[id] = true
		}
	}
	return sens, occurs
}

// SensitivityByTuple returns S_Q(I, t_P) for every referenced individual
// (eq. 4): the total ψ-weight of join results referencing that tuple.
func (r *Result) SensitivityByTuple() map[TupleRef]float64 {
	sens, occurs := r.sensByID()
	out := make(map[TupleRef]float64)
	for id, ok := range occurs {
		if ok {
			out[r.Universe[id]] = sens[id]
		}
	}
	return out
}

// MaxTupleSensitivity returns max_t S_Q(I,t): DS_Q(I) for SJA queries and
// IS_Q(I) (the indirect sensitivity, Section 7) for SPJA queries.
func (r *Result) MaxTupleSensitivity() float64 {
	sens, occurs := r.sensByID()
	var m float64
	for id, ok := range occurs {
		if ok && sens[id] > m {
			m = sens[id]
		}
	}
	return m
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

// NumIndividuals returns the number of distinct referenced individuals.
func (r *Result) NumIndividuals() int {
	_, occurs := r.sensByID()
	n := 0
	for _, ok := range occurs {
		if ok {
			n++
		}
	}
	return n
}

// SortedTupleRefs returns the distinct individuals referenced anywhere in r,
// in a deterministic order — handy for tests and experiment output.
func (r *Result) SortedTupleRefs() []TupleRef {
	_, occurs := r.sensByID()
	var out []TupleRef
	for id, ok := range occurs {
		if ok {
			out = append(out, r.Universe[id])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return value.Less(out[i].Key, out[j].Key)
	})
	return out
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
	opt := runOpts{workers: cfg.Workers, groupVar: -1, rec: cfg.Recorder}
	c, err := runCore(p, inst, opt)
	if err != nil {
		return nil, err
	}
	res, _, err := buildFromCore(c, p, opt)
	return res, err
}

// Split separates an allowNegative view into two non-negative halves: pos
// carries ψ⁺ = max(ψ,0) and neg carries ψ⁻ = max(−ψ,0), so Q(I) =
// pos.TrueAnswer() − neg.TrueAnswer(). Each half is a valid input to a
// truncation operator; privatizing both (with split budget) and subtracting
// is the standard way to lift the paper's ψ ≥ 0 requirement. Both halves
// share full's Universe.
func Split(full *Result) (pos, neg *Result) {
	pos = &Result{Plan: full.Plan, Universe: full.Universe}
	neg = &Result{Plan: full.Plan, Universe: full.Universe}
	for _, row := range full.Rows {
		if row.Psi >= 0 {
			pos.Rows = append(pos.Rows, row)
		} else {
			neg.Rows = append(neg.Rows, JoinRow{Psi: -row.Psi, RefIDs: row.RefIDs})
		}
	}
	return pos, neg
}

// runOpts carries one run's parameters; none of them changes the row order.
type runOpts struct {
	allowNegative bool
	workers       int
	groupVar      int // -1: no partitioning
	groupOf       map[value.V]int32
	rec           *obs.Recorder // nil = profiling off
}

// refInterner assigns dense ids to TupleRefs in first-appearance order.
type refInterner struct {
	ids   map[TupleRef]int32
	order []TupleRef
}

func newRefInterner() *refInterner {
	return &refInterner{ids: make(map[TupleRef]int32)}
}

func (in *refInterner) id(r TupleRef) int32 {
	if id, ok := in.ids[r]; ok {
		return id
	}
	id := int32(len(in.order))
	in.ids[r] = id
	in.order = append(in.order, r)
	return id
}

// runCore executes the probe pass: the join of the plan's atoms under its
// residual filters, producing the finished variable assignments. Nothing
// here reads the aggregate expression, the primary designation, or any
// privacy parameter — the core is exactly the work that can be shared across
// queries with equal JoinSignatures. The returned Core is immutable.
func runCore(p *plan.Plan, inst *storage.Instance, opt runOpts) (*Core, error) {
	stopExec := opt.rec.Time(obs.StageExec)
	defer stopExec()

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

	workers := opt.workers
	if workers <= 0 {
		workers = defaultWorkers()
	}

	// Join.
	current := [][]value.V{make([]value.V, p.NumVars)} // one empty assignment
	for si, st := range steps {
		snap := snaps[st.atom]
		opt.rec.Add(obs.CtrExecRowsProbed, int64(len(current)))
		current = joinStepExec(current, &steps[si], snap, filterAt[si], p.NumVars, workers, opt.rec)
		opt.rec.Add(obs.CtrExecRowsOut, int64(len(current)))
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

// buildFromCore evaluates one query's aggregate view over a finished probe
// pass: ψ weights from the plan's SUM expression, interned provenance from
// its primary designation, projection groups, and (optionally) partition
// assignments. It only reads the core's assignments, so any number of
// builds — for different aggregates, even concurrently — may share one core.
// The second return value is the per-row partition id (or nil when
// opt.groupVar < 0).
func buildFromCore(c *Core, p *plan.Plan, opt runOpts) (*Result, []int32, error) {
	stopExec := opt.rec.Time(obs.StageExec)
	defer stopExec()

	var sumFn scalarFn
	if p.SumExpr != nil {
		fn, err := compileScalar(p.SumExpr, p)
		if err != nil {
			return nil, nil, err
		}
		sumFn = fn
	}
	current := c.asgs

	// Build join rows with ψ and provenance.
	res := &Result{Plan: p}
	res.Rows = make([]JoinRow, 0, len(current))
	var projKeys map[string]int
	isProj := len(p.ProjVars) > 0
	if isProj {
		res.IsProjection = true
		projKeys = make(map[string]int)
	}
	var rowPart []int32
	if opt.groupVar >= 0 {
		rowPart = make([]int32, 0, len(current))
	}
	intern := newRefInterner()
	numPriv := 0
	for _, pk := range p.PrivPK {
		if pk >= 0 {
			numPriv++
		}
	}
	// One backing array for every row's RefIDs; capacity is exact, so the
	// appends below never reallocate and the per-row subslices stay valid.
	refSlab := make([]int32, 0, len(current)*numPriv)
	var keyBuf []byte
	for _, asg := range current {
		var psi float64 = 1
		if sumFn != nil {
			v := sumFn(asg)
			if !v.IsNumeric() {
				return nil, nil, fmt.Errorf("exec: SUM expression evaluated to non-numeric value %v", v)
			}
			psi = v.AsFloat()
			if psi < 0 && !opt.allowNegative {
				return nil, nil, fmt.Errorf("exec: SUM expression produced negative weight %v (ψ must be non-negative; set AllowNegativeSum to split the query)", psi)
			}
			if math.IsNaN(psi) || math.IsInf(psi, 0) {
				return nil, nil, fmt.Errorf("exec: SUM expression produced non-finite weight")
			}
		}
		row := JoinRow{Psi: psi}
		start := len(refSlab)
		for i, pk := range p.PrivPK {
			if pk < 0 {
				continue
			}
			id := intern.id(TupleRef{Rel: p.Atoms[i].Rel.Name, Key: asg[pk].Key()})
			dup := false
			for _, ex := range refSlab[start:] {
				if ex == id {
					dup = true
					break
				}
			}
			if !dup {
				refSlab = append(refSlab, id)
			}
		}
		row.RefIDs = refSlab[start:len(refSlab):len(refSlab)]
		k := len(res.Rows)
		res.Rows = append(res.Rows, row)
		if rowPart != nil {
			pi, ok := opt.groupOf[asg[opt.groupVar].Key()]
			if !ok {
				pi = -1
			}
			rowPart = append(rowPart, pi)
		}
		if isProj {
			keyBuf = keyBuf[:0]
			for _, v := range p.ProjVars {
				keyBuf = appendValueKey(keyBuf, asg[v])
			}
			ks := string(keyBuf)
			l, ok := projKeys[ks]
			if !ok {
				l = len(res.Groups)
				projKeys[ks] = l
				res.Groups = append(res.Groups, nil)
				res.GroupPsi = append(res.GroupPsi, 1) // COUNT(DISTINCT): ψ(p_l)=1
			}
			res.Groups[l] = append(res.Groups[l], k)
		}
	}
	res.Universe = intern.order
	return res, rowPart, nil
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
