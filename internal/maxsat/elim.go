package maxsat

import (
	"math"
	"slices"
)

// Elimination engine: bucket elimination (Dechter, "Bucket elimination:
// a unifying framework for reasoning", AIJ 1999) computes the exact
// optimum of a problem whose primal graph — an edge between every two
// variables sharing a clause — has low induced width, whatever its
// variable count. The conflict components TeCoRe grounds are interval
// overlap graphs, whose induced width is one less than the most facts
// overlapping at once: a handful on the clustered workloads' components
// of up to 180 atoms.
//
// The symbolic pass eliminates the primal graph's vertices in greedy
// minimum-degree order, the lowest variable first on ties, and records
// each bucket's scope: the eliminated variable's neighbours at that
// point, which become a clique. Bucket i's table holds one cell per
// assignment of its variable (bit 0 of the cell index) and its scope
// (bit k+1 for scope[k]), 2^(|scope|+1) cells. When
// the tables would need more than elimCellBudget cells in total, the
// pass gives up before allocating any, and Solve hands the problem to
// the branch-and-bound or local search.
//
// The numeric pass runs min-sum over the buckets in order. Each clause
// is a factor over its sorted distinct variables that costs its weight
// (+Inf when hard) at the one assignment falsifying every literal; it is
// added into the table of its first-eliminated variable, or into the
// variable's pending unary factor when it has one variable. A bucket's
// table, completed by that unary factor, is minimised over its variable
// into a message over its scope, added into the table of the scope's
// first-eliminated variable (or its unary factor, or the optimum when
// the scope is empty). An infinite optimum means the hard clauses are
// unsatisfiable, and Solve hands the problem on as for an over-budget
// one. Otherwise
// backtracking in reverse order sets each variable to the lower cost of
// its bucket's two cells given the later variables' values — true on a
// tie. Nothing depends on Options: Seed and Warm are ignored.

// elimCellBudget bounds the tables of one elimination, Σ 2^(|scope|+1)
// over the buckets: one float64 per cell, 2 MiB at the bound. A clique
// of 18 variables exceeds it on its own.
const elimCellBudget = 1 << 18

// maxElimScope is the largest bucket scope the budget admits: a scope
// of 17 takes 2^18 cells and leaves its variables a clique, whose own
// buckets go past the budget.
const maxElimScope = 16

// elimPlan is the symbolic pass's result.
type elimPlan struct {
	lits  []Lit     // per clause, its distinct variables ascending, Neg their falsifying value
	start []int32   // clause ci's variables are lits[start[ci]:start[ci+1]]; empty for a tautology
	order []int32   // variables in elimination order
	pos   []int32   // per variable: its position in order
	scope [][]int32 // per position: the bucket's other variables, ascending
	off   []int     // per position: its table's offset in the slab; off[n] is the total
}

func (pl *elimPlan) clause(ci int) []Lit { return pl.lits[pl.start[ci]:pl.start[ci+1]] }

// planElim runs the symbolic pass. ok is false when the tables would
// exceed elimCellBudget.
func planElim(p *Problem) (pl elimPlan, ok bool) {
	n := p.NumVars
	if 2*n > elimCellBudget {
		return pl, false
	}
	pl.start = make([]int32, len(p.Clauses)+1)
	for ci := range p.Clauses {
		pl.lits = appendScope(pl.lits, p.Clauses[ci].Lits)
		if len(pl.lits)-int(pl.start[ci]) > maxElimScope+1 {
			return pl, false
		}
		pl.start[ci+1] = int32(len(pl.lits))
	}
	adj := make([][]int32, n)
	for ci := range p.Clauses {
		vars := pl.clause(ci)
		for i, a := range vars {
			for _, b := range vars[i+1:] {
				adj[a.Var] = append(adj[a.Var], b.Var)
				adj[b.Var] = append(adj[b.Var], a.Var)
			}
		}
	}
	var h degreeHeap
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = slices.Compact(adj[v])
		h = append(h, degreeKey(len(adj[v]), int32(v)))
	}
	h.init()

	pl.order = make([]int32, 0, n)
	pl.pos = make([]int32, n)
	pl.scope = make([][]int32, 0, n)
	pl.off = make([]int, 1, n+1)
	eliminated := make([]bool, n)
	var merged []int32
	for len(pl.order) < n {
		k := h.pop()
		v, d := int32(k), int(k>>32)
		if eliminated[v] || d != len(adj[v]) {
			continue // stale key
		}
		if d > maxElimScope {
			return pl, false
		}
		total := pl.off[len(pl.off)-1] + 2<<d
		if total > elimCellBudget {
			return pl, false
		}
		nb := adj[v] // never written again: v leaves every list below
		eliminated[v] = true
		pl.pos[v] = int32(len(pl.order))
		pl.order = append(pl.order, v)
		pl.scope = append(pl.scope, nb)
		pl.off = append(pl.off, total)
		for _, u := range nb {
			merged = unionWithout(merged[:0], adj[u], nb, u, v)
			adj[u] = append(adj[u][:0], merged...)
			h.push(degreeKey(len(adj[u]), u))
		}
	}
	return pl, true
}

// appendScope appends lits' distinct variables to dst in ascending
// order, each with Neg set to the value falsifying its literals. A
// clause holding a variable in both phases is satisfied by every
// assignment and appends nothing.
func appendScope(dst []Lit, lits []Lit) []Lit {
	base := len(dst)
	for _, l := range lits {
		i := base
		for i < len(dst) && dst[i].Var < l.Var {
			i++
		}
		if i < len(dst) && dst[i].Var == l.Var {
			if dst[i].Neg != l.Neg {
				return dst[:base]
			}
			continue
		}
		dst = slices.Insert(dst, i, l)
	}
	return dst
}

// unionWithout appends the sorted union of the sorted lists a and b,
// less x and y, to dst.
func unionWithout(dst, a, b []int32, x, y int32) []int32 {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var w int32
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			w = a[i]
			i++
		case i == len(a) || b[j] < a[i]:
			w = b[j]
			j++
		default:
			w = a[i]
			i++
			j++
		}
		if w != x && w != y {
			dst = append(dst, w)
		}
	}
	return dst
}

// degreeHeap is a binary min-heap of degreeKeys: the lowest degree
// first, the lowest variable among equal degrees. Entries go stale as
// degrees change; pop's caller skips them.
type degreeHeap []uint64

func degreeKey(deg int, v int32) uint64 { return uint64(deg)<<32 | uint64(uint32(v)) }

func (h degreeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *degreeHeap) push(k uint64) {
	*h = append(*h, k)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *degreeHeap) pop() uint64 {
	s := *h
	k := s[0]
	s[0] = s[len(s)-1]
	*h = s[:len(s)-1]
	h.down(0)
	return k
}

func (h degreeHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// solveElim returns the exact optimum and true, or false when the
// symbolic pass exceeds the cell budget or the hard clauses are
// unsatisfiable.
func solveElim(p *Problem) (*Solution, bool) {
	pl, ok := planElim(p)
	if !ok {
		return nil, false
	}
	n := p.NumVars
	slab := make([]float64, pl.off[n])
	table := func(i int) []float64 { return slab[pl.off[i]:pl.off[i+1]] }
	unary := make([][2]float64, n) // per variable: pending cost of false, true
	bit := make([]uint8, n)        // per variable: its bit in the table being written
	layout := func(i int) {
		bit[pl.order[i]] = 0
		for k, u := range pl.scope[i] {
			bit[u] = uint8(k + 1)
		}
	}
	for ci := range p.Clauses {
		vars, w := pl.clause(ci), p.Clauses[ci].Weight
		switch len(vars) {
		case 0: // a tautology
		case 1:
			if u := &unary[vars[0].Var]; vars[0].Neg {
				u[1] += w
			} else {
				u[0] += w
			}
		default:
			home := int32(n)
			for _, l := range vars {
				home = min(home, pl.pos[l.Var])
			}
			layout(int(home))
			mask, pat := 0, 0
			for _, l := range vars {
				b := 1 << bit[l.Var]
				mask |= b
				if l.Neg {
					pat |= b
				}
			}
			t := table(int(home))
			free := (len(t) - 1) &^ mask
			for sub := free; ; sub = (sub - 1) & free {
				t[pat|sub] += w
				if sub == 0 {
					break
				}
			}
		}
	}

	var dep []uint8
	opt := 0.0
	for i, v := range pl.order {
		t, nb := table(i), pl.scope[i]
		if u := unary[v]; u != [2]float64{} {
			for c := range t {
				t[c] += u[c&1]
			}
		}
		switch len(nb) {
		case 0:
			opt += min(t[0], t[1])
		case 1:
			u := &unary[nb[0]]
			u[0] += min(t[0], t[1])
			u[1] += min(t[2], t[3])
		default:
			j := int32(n)
			for _, u := range nb {
				j = min(j, pl.pos[u])
			}
			layout(int(j))
			dep = dep[:0]
			for _, u := range nb {
				dep = append(dep, bit[u])
			}
			tj := table(int(j))
			for c := range tj {
				m := 0
				for k, d := range dep {
					m |= (c >> d & 1) << k
				}
				tj[c] += min(t[2*m], t[2*m+1])
			}
		}
	}
	if math.IsInf(opt, 1) {
		return nil, false
	}

	assign := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		m := 0
		for k, u := range pl.scope[i] {
			if assign[u] {
				m |= 1 << k
			}
		}
		t := table(i)
		assign[pl.order[i]] = t[2*m+1] <= t[2*m]
	}
	hv, cost := Evaluate(p, assign)
	return &Solution{Assignment: assign, Cost: cost, HardSatisfied: hv == 0, Optimal: true}, true
}
