// Package plan lowers a parsed SPJA query over a schema into the join-of-atoms
// form of Section 3.1: a list of relation atoms with unified variables, a set
// of residual predicates (the ψ filter), the aggregate expression, and — for
// COUNT(DISTINCT ...) — the projection variables. It also performs query
// completion (Section 3.2): for every FK variable whose referenced primary key
// is absent, the referenced relation is added with its PK bound to that
// variable, so provenance to the primary private relations is always explicit.
package plan

import (
	"fmt"
	"strings"

	"r2t/internal/schema"
	"r2t/internal/sql"
)

// Atom is one occurrence of a relation in the (completed) join, with one
// variable id per column.
type Atom struct {
	Rel       *schema.Relation
	Alias     string
	Vars      []int
	Completed bool // true if added by query completion, not by the user
}

// Filter is a residual predicate together with the variables it reads.
type Filter struct {
	Expr sql.Expr
	Vars []int
}

// Plan is the lowered query.
type Plan struct {
	Src      *sql.Query
	Schema   *schema.Schema
	Priv     schema.PrivateSpec
	Atoms    []Atom
	NumVars  int
	Filters  []Filter
	Agg      sql.AggKind
	SumExpr  sql.Expr // variables resolved via ColVar; set when Agg == AggSum
	SumVars  []int    // variables read by SumExpr
	ProjVars []int    // projection variables (Agg == AggCountDistinct)

	// PrivPK[i] (parallel to Atoms) is the variable holding atom i's primary
	// key when atom i is over a primary private relation, else -1. These
	// variables identify the individuals each join result references.
	PrivPK []int

	colVar map[sql.ColRef]int // resolved user-visible columns → variable id
}

// SelfJoin reports whether some relation appears in more than one atom of
// the completed join — the structural condition under which naive truncation
// is not DP-safe (Example 1.2). Shared by Explain and the mechanism chooser.
func (p *Plan) SelfJoin() bool {
	seen := make(map[string]bool, len(p.Atoms))
	for _, a := range p.Atoms {
		if seen[a.Rel.Name] {
			return true
		}
		seen[a.Rel.Name] = true
	}
	return false
}

// PrivateAtoms counts the atoms over a primary private relation: the most
// individuals one join result can reference.
func (p *Plan) PrivateAtoms() int {
	n := 0
	for _, pk := range p.PrivPK {
		if pk >= 0 {
			n++
		}
	}
	return n
}

// ColVar returns the variable id bound to a user column reference, or -1.
func (p *Plan) ColVar(c sql.ColRef) int {
	if v, ok := p.colVar[c]; ok {
		return v
	}
	return -1
}

// Build lowers q against s with privacy designation priv.
func Build(q *sql.Query, s *schema.Schema, priv schema.PrivateSpec) (*Plan, error) {
	if err := priv.Validate(s); err != nil {
		return nil, err
	}
	b := &builder{
		p:      &Plan{Src: q, Schema: s, Priv: priv, Agg: q.Agg, colVar: make(map[sql.ColRef]int)},
		byCol:  make(map[colKey]int),
		parent: nil,
	}

	// 1. User atoms with one fresh variable per column.
	seenAlias := make(map[string]bool)
	for _, tr := range q.From {
		rel := s.Relation(tr.Table)
		if rel == nil {
			return nil, fmt.Errorf("plan: unknown relation %q", tr.Table)
		}
		if seenAlias[tr.Alias] {
			return nil, fmt.Errorf("plan: duplicate alias %q", tr.Alias)
		}
		seenAlias[tr.Alias] = true
		vars := make([]int, len(rel.Attrs))
		for j := range rel.Attrs {
			v := b.fresh()
			vars[j] = v
			b.byCol[colKey{tr.Alias, rel.Attrs[j]}] = v
		}
		b.p.Atoms = append(b.p.Atoms, Atom{Rel: rel, Alias: tr.Alias, Vars: vars})
	}

	// 2. Unify variables across top-level equality conjuncts between columns;
	// everything else becomes a residual filter.
	var residual []sql.Expr
	for _, conj := range conjuncts(q.Where) {
		if bin, ok := conj.(sql.Binary); ok && bin.Op == "=" {
			lc, lok := bin.L.(sql.Col)
			rc, rok := bin.R.(sql.Col)
			if lok && rok {
				lv, err := b.resolve(lc.Ref)
				if err != nil {
					return nil, err
				}
				rv, err := b.resolve(rc.Ref)
				if err != nil {
					return nil, err
				}
				b.union(lv, rv)
				continue
			}
		}
		residual = append(residual, conj)
	}

	// 3. Canonicalize variable ids (union-find roots → dense ids).
	b.canonicalize()

	// 4. Resolve the aggregate and residual expressions.
	for _, e := range residual {
		vars, err := b.exprVars(e)
		if err != nil {
			return nil, err
		}
		b.p.Filters = append(b.p.Filters, Filter{Expr: e, Vars: vars})
	}
	switch q.Agg {
	case sql.AggSum:
		vars, err := b.exprVars(q.SumExpr)
		if err != nil {
			return nil, err
		}
		b.p.SumExpr = q.SumExpr
		b.p.SumVars = vars
	case sql.AggCountDistinct:
		for _, c := range q.Distinct {
			v, err := b.resolve(c)
			if err != nil {
				return nil, err
			}
			b.p.ProjVars = append(b.p.ProjVars, b.root(v))
		}
	}

	// 5. Query completion: add referenced relations for dangling FK variables.
	if err := b.complete(); err != nil {
		return nil, err
	}

	// 6. Record the PK variable of every primary-private atom.
	b.p.PrivPK = make([]int, len(b.p.Atoms))
	anyPriv := false
	for i, a := range b.p.Atoms {
		b.p.PrivPK[i] = -1
		if priv.IsPrimary(a.Rel.Name) {
			b.p.PrivPK[i] = a.Vars[a.Rel.AttrIndex(a.Rel.PK)]
			anyPriv = true
		}
	}
	if !anyPriv {
		return nil, fmt.Errorf("plan: completed query has no atom over a primary private relation; nothing to protect")
	}

	// 7. Expose resolved user columns, both qualified and — when unambiguous
	// across the user's FROM list — unqualified.
	for k, v := range b.byCol {
		b.p.colVar[sql.ColRef{Qualifier: k.alias, Attr: k.attr}] = b.root(v)
	}
	attrCount := make(map[string]int)
	attrVar := make(map[string]int)
	for _, a := range b.p.Atoms {
		if a.Completed {
			continue
		}
		for _, attr := range a.Rel.Attrs {
			attrCount[attr]++
			attrVar[attr] = b.byCol[colKey{a.Alias, attr}]
		}
	}
	for attr, cnt := range attrCount {
		if cnt == 1 {
			b.p.colVar[sql.ColRef{Attr: attr}] = b.root(attrVar[attr])
		}
	}
	return b.p, nil
}

type colKey struct{ alias, attr string }

type builder struct {
	p      *Plan
	byCol  map[colKey]int
	parent []int // union-find; nil entries mean self
	canon  []int // root id → dense id, after canonicalize
}

func (b *builder) fresh() int {
	b.parent = append(b.parent, len(b.parent))
	return len(b.parent) - 1
}

func (b *builder) find(v int) int {
	for b.parent[v] != v {
		b.parent[v] = b.parent[b.parent[v]]
		v = b.parent[v]
	}
	return v
}

func (b *builder) union(a, c int) {
	ra, rc := b.find(a), b.find(c)
	if ra != rc {
		b.parent[ra] = rc
	}
}

// canonicalize maps every union-find root to a dense id and rewrites atoms.
func (b *builder) canonicalize() {
	b.canon = make([]int, len(b.parent))
	for i := range b.canon {
		b.canon[i] = -1
	}
	next := 0
	for i := range b.p.Atoms {
		for j, v := range b.p.Atoms[i].Vars {
			r := b.find(v)
			if b.canon[r] < 0 {
				b.canon[r] = next
				next++
			}
			b.p.Atoms[i].Vars[j] = b.canon[r]
		}
	}
	b.p.NumVars = next
}

// root maps an original variable id to its dense id (post-canonicalize).
func (b *builder) root(v int) int { return b.canon[b.find(v)] }

// resolve finds the variable of a user column reference.
func (b *builder) resolve(c sql.ColRef) (int, error) {
	if c.Qualifier != "" {
		if v, ok := b.byCol[colKey{c.Qualifier, c.Attr}]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("plan: unknown column %s", c)
	}
	found := -1
	for _, a := range b.p.Atoms {
		if a.Completed {
			continue
		}
		if a.Rel.HasAttr(c.Attr) {
			if found >= 0 {
				return 0, fmt.Errorf("plan: ambiguous column %q", c.Attr)
			}
			found = b.byCol[colKey{a.Alias, c.Attr}]
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", c.Attr)
	}
	return found, nil
}

// exprVars resolves all column references in e to dense variable ids and
// returns the distinct variables read.
func (b *builder) exprVars(e sql.Expr) ([]int, error) {
	seen := make(map[int]bool)
	var walk func(e sql.Expr) error
	walk = func(e sql.Expr) error {
		switch t := e.(type) {
		case sql.Col:
			v, err := b.resolve(t.Ref)
			if err != nil {
				return err
			}
			seen[b.root(v)] = true
			return nil
		case sql.Lit:
			return nil
		case sql.Binary:
			if err := walk(t.L); err != nil {
				return err
			}
			return walk(t.R)
		case sql.Not:
			return walk(t.E)
		case sql.In:
			return walk(t.E)
		case sql.Between:
			if err := walk(t.E); err != nil {
				return err
			}
			if err := walk(t.Lo); err != nil {
				return err
			}
			return walk(t.Hi)
		case sql.Like:
			return walk(t.E)
		default:
			return fmt.Errorf("plan: unsupported expression node %T", e)
		}
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out, nil
}

// complete adds atoms for FK variables whose referenced PK is not in the
// query, iterating to a fixpoint (added atoms may carry FKs of their own).
func (b *builder) complete() error {
	// pkBound[ref][var] — relation ref has an atom whose PK is this variable.
	pkBound := make(map[string]map[int]bool)
	note := func(a Atom) {
		if a.Rel.PK == "" {
			return
		}
		v := a.Vars[a.Rel.AttrIndex(a.Rel.PK)]
		if pkBound[a.Rel.Name] == nil {
			pkBound[a.Rel.Name] = make(map[int]bool)
		}
		pkBound[a.Rel.Name][v] = true
	}
	for _, a := range b.p.Atoms {
		note(a)
	}
	added := 1
	for round := 0; added > 0; round++ {
		if round > len(b.p.Schema.Names())+2 {
			return fmt.Errorf("plan: query completion did not converge (FK graph should be a DAG)")
		}
		added = 0
		n := len(b.p.Atoms)
		for i := 0; i < n; i++ {
			a := b.p.Atoms[i]
			for _, fk := range a.Rel.FKs {
				v := a.Vars[a.Rel.AttrIndex(fk.Attr)]
				if pkBound[fk.Ref][v] {
					continue
				}
				ref := b.p.Schema.Relation(fk.Ref)
				vars := make([]int, len(ref.Attrs))
				for j, attr := range ref.Attrs {
					if attr == ref.PK {
						vars[j] = v
					} else {
						vars[j] = b.p.NumVars
						b.p.NumVars++
					}
				}
				na := Atom{
					Rel:       ref,
					Alias:     fmt.Sprintf("_ref%d_%s", len(b.p.Atoms), strings.ToLower(ref.Name)),
					Vars:      vars,
					Completed: true,
				}
				b.p.Atoms = append(b.p.Atoms, na)
				note(na)
				added++
			}
		}
	}
	return nil
}

// conjuncts splits a boolean expression on top-level ANDs.
func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if bin, ok := e.(sql.Binary); ok && bin.Op == "AND" {
		return append(conjuncts(bin.L), conjuncts(bin.R)...)
	}
	return []sql.Expr{e}
}
