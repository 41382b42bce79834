package truncation

import (
	"math"
	"math/rand"
	"testing"

	"r2t/internal/dp"
	"r2t/internal/exec"
	"r2t/internal/plan"
	"r2t/internal/schema"
	"r2t/internal/sql"
	"r2t/internal/tpch"
)

// flowNet is a residual network for Dinic's max-flow algorithm on float
// capacities. It shares no code with internal/lp, so it is an independent
// oracle for the truncation LP on the instances where that LP is a flow.
type flowNet struct {
	head       []int32 // first arc out of each node, -1 if none
	next, to   []int32 // per arc; arc a^1 is a's reverse
	res        []float64
	level, cur []int32
}

func newFlowNet(nodes int) *flowNet {
	f := &flowNet{head: make([]int32, nodes), level: make([]int32, nodes), cur: make([]int32, nodes)}
	for i := range f.head {
		f.head[i] = -1
	}
	return f
}

func (f *flowNet) addEdge(u, v int, c float64) {
	for _, e := range [2]struct {
		from, to int
		c        float64
	}{{u, v, c}, {v, u, 0}} {
		f.next = append(f.next, f.head[e.from])
		f.to = append(f.to, int32(e.to))
		f.res = append(f.res, e.c)
		f.head[e.from] = int32(len(f.to) - 1)
	}
}

// maxFlow returns the value of a maximum s–t flow. Residuals at or below eps
// count as saturated, so float round-off cannot spin the augmenting loop.
func (f *flowNet) maxFlow(s, t int, eps float64) float64 {
	total := 0.0
	for f.bfs(s, t, eps) {
		copy(f.cur, f.head)
		for {
			pushed := f.dfs(s, t, math.Inf(1), eps)
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total
}

// bfs builds the level graph; it reports whether t is reachable.
func (f *flowNet) bfs(s, t int, eps float64) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := f.head[u]; a >= 0; a = f.next[a] {
			if v := f.to[a]; f.res[a] > eps && f.level[v] < 0 {
				f.level[v] = f.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return f.level[t] >= 0
}

// dfs pushes up to limit along level-increasing arcs from u to t.
func (f *flowNet) dfs(u, t int, limit, eps float64) float64 {
	if u == t {
		return limit
	}
	for ; f.cur[u] >= 0; f.cur[u] = f.next[f.cur[u]] {
		a := f.cur[u]
		v := int(f.to[a])
		if f.res[a] <= eps || f.level[v] != f.level[u]+1 {
			continue
		}
		if pushed := f.dfs(v, t, math.Min(limit, f.res[a]), eps); pushed > eps {
			f.res[a] -= pushed
			f.res[a^1] += pushed
			return pushed
		}
	}
	return 0
}

// bipartiteFlow is Q(I,τ) for an instance whose every row references one
// left and one right individual: the LP max Σ x_k, 0 ≤ x_k ≤ ψ_k, with each
// individual's rows summing to at most τ, is the max flow of source → left
// (capacity τ), left → right (one edge per row, capacity ψ_k), right → sink
// (capacity τ).
func bipartiteFlow(o *Occurrences, left []bool, tau float64) float64 {
	const source, sink = 0, 1
	n := len(o.Universe)
	f := newFlowNet(n + 2)
	maxCap := tau
	for id := 0; id < n; id++ {
		if left[id] {
			f.addEdge(source, 2+id, tau)
		} else {
			f.addEdge(2+id, sink, tau)
		}
	}
	for _, row := range o.Rows {
		u, v := row.RefIDs[0], row.RefIDs[1]
		if !left[u] {
			u, v = v, u
		}
		f.addEdge(2+int(u), 2+int(v), row.Psi)
		maxCap = math.Max(maxCap, row.Psi)
	}
	return f.maxFlow(source, sink, 1e-14*maxCap)
}

// checkAgainstFlow compares LPTruncator.Value with the flow oracle at every τ
// of R2T's grid for GS_Q = 10⁵ and at fractional τ between and below them.
func checkAgainstFlow(t *testing.T, label string, o *Occurrences, left []bool) {
	t.Helper()
	tr := NewLPFromOccurrences(o)
	taus := append(dp.TauGrid(1e5), 0.25, 1.5, 3.7, 100.125, 4095.5)
	binding := 0
	for _, tau := range taus {
		v, err := tr.Value(tau)
		if err != nil {
			t.Fatalf("%s τ=%g: %v", label, tau, err)
		}
		flow := bipartiteFlow(o, left, tau)
		if math.Abs(v-flow) > 1e-9*math.Max(1, flow) {
			t.Fatalf("%s τ=%g: LP value %v, max flow %v", label, tau, v, flow)
		}
		if flow < tr.TrueAnswer()*(1-1e-9) && flow > tau {
			binding++ // τ truncates, and more than one individual's worth
		}
	}
	if binding < 3 {
		t.Fatalf("%s: τ truncates nontrivially at only %d grid points; the instance checks too little", label, binding)
	}
}

// TestValueMatchesMaxFlow checks the LP truncator against a max-flow written
// here, on the instances where the truncation LP is a flow: every join row
// references exactly one Customer and one Supplier. TPC-H Q5, Q8 (COUNT) and
// Q7 (SUM, fractional ψ) have that shape; so do seeded random bipartite
// instances with skewed degrees, under integer and fractional ψ.
func TestValueMatchesMaxFlow(t *testing.T) {
	inst := tpch.Generate(tpch.GenOptions{SF: 0.5, Seed: 1})
	for _, name := range []string{"Q5", "Q7", "Q8"} {
		q := tpch.QueryByName(name)
		p, err := plan.Build(sql.MustParse(q.SQL), inst.Schema, schema.PrivateSpec{Primary: q.Primary})
		if err != nil {
			t.Fatal(err)
		}
		o, err := exec.Run(p, inst)
		if err != nil {
			t.Fatal(err)
		}
		left := make([]bool, len(o.Universe))
		for id, ref := range o.Universe {
			left[id] = ref.Rel == "Customer"
		}
		if o.Groups != nil || len(o.Rows) == 0 {
			t.Fatalf("%s: want a non-empty projection-free join, got %d rows", name, len(o.Rows))
		}
		for k, row := range o.Rows {
			if len(row.RefIDs) != 2 || left[row.RefIDs[0]] == left[row.RefIDs[1]] ||
				o.Universe[row.RefIDs[0]].Rel != "Customer" && o.Universe[row.RefIDs[1]].Rel != "Customer" ||
				o.Universe[row.RefIDs[0]].Rel != "Supplier" && o.Universe[row.RefIDs[1]].Rel != "Supplier" {
				t.Fatalf("%s row %d references %v: not one Customer and one Supplier, so the LP is not a flow",
					name, k, row.RefIDs)
			}
		}
		checkAgainstFlow(t, name, o, left)
	}

	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		nl, nr, m := 150+rng.Intn(100), 100+rng.Intn(100), 2000+rng.Intn(2000)
		sets := make([][]int32, m)
		psi := make([]float64, m)
		for k := range sets {
			// A few hubs on each side carry many rows, so τ binds somewhere.
			c, s := rng.Intn(nl), rng.Intn(nr)
			if rng.Intn(4) == 0 {
				c = rng.Intn(5)
			}
			if rng.Intn(4) == 0 {
				s = rng.Intn(5)
			}
			sets[k] = []int32{int32(c), int32(nl + s)}
			if trial%2 == 0 {
				psi[k] = float64(1 + rng.Intn(20))
			} else {
				psi[k] = rng.Float64() * 20
			}
		}
		left := make([]bool, nl+nr)
		for id := range nl {
			left[id] = true
		}
		checkAgainstFlow(t, "random", occurrences(nl+nr, sets, psi), left)
	}
}
