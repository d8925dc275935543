package ground

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
)

// Property test: the join-based grounder must produce exactly the
// violated groundings a naive quadratic enumeration finds, for the
// paper's c2-style disjointness constraint over random stores.

func TestGroundC2MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")

	for trial := 0; trial < 120; trial++ {
		st := store.New()
		type rec struct {
			id   store.FactID
			subj string
			obj  string
			iv   temporal.Interval
		}
		var recs []rec
		n := 2 + rng.Intn(25)
		for i := 0; i < n; i++ {
			subj := fmt.Sprintf("p%d", rng.Intn(4))
			obj := fmt.Sprintf("club%d", rng.Intn(5))
			s := int64(rng.Intn(12))
			iv := temporal.Interval{Start: s, End: s + int64(rng.Intn(6))}
			id, err := st.Add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("coach"),
				Object:     rdf.NewIRI(obj),
				Interval:   iv,
				Confidence: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{id, subj, obj, iv})
		}
		// Deduplicate recs by fact id (store merges duplicates).
		seen := map[store.FactID]bool{}
		var uniq []rec
		for _, r := range recs {
			if !seen[r.id] {
				seen[r.id] = true
				uniq = append(uniq, r)
			}
		}

		// Brute force: unordered pairs with same subject, distinct
		// objects, intersecting intervals.
		naive := map[string]bool{}
		for i := 0; i < len(uniq); i++ {
			for j := i + 1; j < len(uniq); j++ {
				a, b := uniq[i], uniq[j]
				if a.subj == b.subj && a.obj != b.obj && a.iv.Intersects(b.iv) {
					lo, hi := a.id, b.id
					if lo > hi {
						lo, hi = hi, lo
					}
					naive[fmt.Sprintf("%d-%d", lo, hi)] = true
				}
			}
		}

		g := New(st)
		cs, err := g.GroundProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, c := range cs.Clauses() {
			if len(c.Lits) != 2 || !c.Lits[0].Neg || !c.Lits[1].Neg {
				t.Fatalf("trial %d: unexpected clause shape %v", trial, c)
			}
			a := g.Atoms().Info(c.Lits[0].Atom).FactID
			b := g.Atoms().Info(c.Lits[1].Atom).FactID
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			got[fmt.Sprintf("%d-%d", lo, hi)] = true
		}

		if len(got) != len(naive) {
			t.Fatalf("trial %d: grounder found %d pairs, brute force %d", trial, len(got), len(naive))
		}
		for k := range naive {
			if !got[k] {
				t.Fatalf("trial %d: grounder missed pair %s", trial, k)
			}
		}
	}
}

// Property test: forward chaining matches the naive fixpoint for the f1
// rule family (playsFor ⇒ worksFor ⇒ employedBy).
func TestCloseMatchesNaiveFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prog := rulelang.MustParse(`
r1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 1
r2: quad(x, worksFor, y, t) -> quad(x, employedBy, y, t) w = 1
`)
	for trial := 0; trial < 60; trial++ {
		st := store.New()
		n := 1 + rng.Intn(15)
		type key struct {
			s, o string
			iv   temporal.Interval
		}
		plays := map[key]bool{}
		works := map[key]bool{}
		for i := 0; i < n; i++ {
			k := key{
				s:  fmt.Sprintf("p%d", rng.Intn(5)),
				o:  fmt.Sprintf("c%d", rng.Intn(5)),
				iv: temporal.Interval{Start: int64(rng.Intn(8)), End: int64(8 + rng.Intn(8))},
			}
			pred := "playsFor"
			if rng.Intn(3) == 0 {
				pred = "worksFor"
				works[k] = true
			} else {
				plays[k] = true
			}
			st.Add(rdf.NewQuad(k.s, pred, k.o, k.iv, 0.7))
		}
		// Naive closure: every playsFor also works; every works (given or
		// derived) is employed.
		expectWorks := map[key]bool{}
		for k := range plays {
			if !works[k] {
				expectWorks[k] = true
			}
		}
		expectEmployed := map[key]bool{}
		for k := range works {
			expectEmployed[k] = true
		}
		for k := range expectWorks {
			expectEmployed[k] = true
		}
		wantDerived := len(expectWorks) + len(expectEmployed)

		g := New(st)
		added, err := g.Close(prog)
		if err != nil {
			t.Fatal(err)
		}
		if added != wantDerived {
			t.Fatalf("trial %d: derived %d atoms, naive fixpoint %d", trial, added, wantDerived)
		}
	}
}

// naiveNetwork is the ground network as the oracle sees it: live atom
// statements (true = evidence) and clauses keyed by rule plus sorted
// signed literal statements, with aggregated weights.
type naiveNetwork struct {
	atoms   map[rdf.FactKey]bool
	clauses map[string]float64
}

// naiveBindings enumerates every binding of the rule body by nested
// loops over all facts per body atom — no indexes, no join order, no
// codes: logic.Binding is extended position by position and every
// condition is interpreted with Condition.Eval once the body is bound.
func naiveBindings(t *testing.T, r *logic.Rule, facts []rdf.FactKey, emit func(*logic.Binding, []rdf.FactKey)) {
	t.Helper()
	body := make([]rdf.FactKey, len(r.Body))
	var rec func(depth int, b *logic.Binding)
	rec = func(depth int, b *logic.Binding) {
		if depth == len(r.Body) {
			for _, c := range r.Conds {
				holds, err := c.Eval(b)
				if err != nil {
					t.Fatalf("oracle: rule %s: %v", r.Name, err)
				}
				if !holds {
					return
				}
			}
			emit(b, body)
			return
		}
		a := r.Body[depth]
		for _, f := range facts {
			nb := b.Clone()
			unify := func(term logic.Term, val rdf.Term) bool {
				if cur, ok := nb.ResolveTerm(term); ok {
					return cur == val
				}
				nb.Objs[term.Var] = val
				return true
			}
			if !unify(a.S, f.S) || !unify(a.P, f.P) || !unify(a.O, f.O) {
				continue
			}
			if cur, ok := nb.ResolveTime(a.T); ok {
				if cur != f.Interval {
					continue
				}
			} else {
				nb.Times[a.T.Var] = f.Interval
			}
			body[depth] = f
			rec(depth+1, nb)
		}
	}
	rec(0, logic.NewBinding())
}

// naiveGround is the reference grounder: a naive fixpoint over the
// inference rules, then one clause per surviving grounding of every rule.
func naiveGround(t *testing.T, st *store.Store, prog *logic.Program) naiveNetwork {
	t.Helper()
	nw := naiveNetwork{atoms: map[rdf.FactKey]bool{}, clauses: map[string]float64{}}
	var facts []rdf.FactKey
	for i := 0; i < st.IDBound(); i++ {
		if id := store.FactID(i); st.Live(id) {
			k := st.Fact(id).Fact()
			nw.atoms[k] = true
			facts = append(facts, k)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range prog.InferenceRules() {
			naiveBindings(t, r, facts, func(b *logic.Binding, _ []rdf.FactKey) {
				head, ok := r.Head.Atom.Resolve(b)
				if _, seen := nw.atoms[head]; !ok || seen {
					return
				}
				nw.atoms[head] = false
				facts = append(facts, head)
				changed = true
			})
		}
	}
	for _, r := range prog.Rules {
		naiveBindings(t, r, facts, func(b *logic.Binding, body []rdf.FactKey) {
			lits := map[string]bool{}
			for _, k := range body {
				lits["!"+k.String()] = true
			}
			switch r.Head.Kind {
			case logic.HeadAtom:
				head, ok := r.Head.Atom.Resolve(b)
				if !ok {
					return // empty head time expression: no obligation
				}
				if lits["!"+head.String()] {
					return // tautology
				}
				lits[head.String()] = true
			case logic.HeadCond:
				holds, err := r.Head.Cond.Eval(b)
				if err != nil {
					t.Fatalf("oracle: rule %s head: %v", r.Name, err)
				}
				if holds {
					return
				}
			}
			key := clauseKey(r.Name, lits)
			if r.Hard() {
				nw.clauses[key] = math.Inf(1)
			} else {
				nw.clauses[key] += r.Weight
			}
		})
	}
	return nw
}

func clauseKey(rule string, lits map[string]bool) string {
	keys := make([]string, 0, len(lits))
	for l := range lits {
		keys = append(keys, l)
	}
	sort.Strings(keys)
	return rule + ": " + strings.Join(keys, " | ")
}

// checkAgainstOracle compares the grounder's live atoms and clauses
// with the oracle's, statement for statement and clause for clause.
func checkAgainstOracle(t *testing.T, label string, g *Grounder, cs *ClauseSet, want naiveNetwork) {
	t.Helper()
	got := naiveNetwork{atoms: map[rdf.FactKey]bool{}, clauses: map[string]float64{}}
	for i := 0; i < g.Atoms().Len(); i++ {
		if info := g.Atoms().Info(AtomID(i)); !info.Retracted {
			got.atoms[info.Key] = info.Evidence
		}
	}
	cs.ForEach(func(c *Clause) bool {
		lits := map[string]bool{}
		for _, l := range c.Lits {
			k := g.Atoms().Info(l.Atom).Key.String()
			if l.Neg {
				k = "!" + k
			}
			lits[k] = true
		}
		got.clauses[clauseKey(c.Rule, lits)] = c.Weight
		return true
	})
	if len(got.atoms) != len(want.atoms) {
		t.Errorf("%s: %d live atoms, oracle %d", label, len(got.atoms), len(want.atoms))
	}
	for k, ev := range want.atoms {
		if gev, ok := got.atoms[k]; !ok || gev != ev {
			t.Errorf("%s: atom %v: got (present=%v evidence=%v), oracle evidence=%v", label, k, ok, gev, ev)
		}
	}
	if len(got.clauses) != len(want.clauses) {
		t.Errorf("%s: %d live clauses, oracle %d", label, len(got.clauses), len(want.clauses))
	}
	for k, w := range want.clauses {
		if gw, ok := got.clauses[k]; !ok || math.Abs(gw-w) > 1e-9 { // inf-inf is NaN: equal hard weights pass
			t.Errorf("%s: clause %s: got weight %v (present=%v), oracle %v", label, k, gw, ok, w)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// oracleProgram is the multi-rule program the oracle runs: the football
// constraints (inequality, equality head, arithmetic condition, falsum
// head), a three-atom join with an Allen head, a two-step inference
// cascade whose second step carries an arithmetic condition, and a
// recursive rule (knowsTrans) whose derivations chain through several
// seminaive rounds and form cycles for delete/rederive to untangle.
const oracleProgram = kgen.FootballProgram + `
colleagues: quad(x, playsFor, y, t) ^ quad(z, playsFor, y, u) ^ quad(x, birthDate, b, t') -> overlap(t, u) w = 0.8
works: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
veteran: quad(x, worksFor, y, t) ^ duration(t) >= 3 -> quad(x, type, Veteran, t) w = 0.8
mates: quad(x, worksFor, y, t) ^ quad(z, worksFor, y, t) ^ x != z -> quad(x, knows, z, t) w = 0.5
knowsTrans: quad(x, knows, y, t) ^ quad(y, knows, z, t) ^ x != z -> quad(x, knows, z, t) w = 0.3
`

func oracleQuad(rng *rand.Rand) rdf.Quad {
	player := fmt.Sprintf("player_%d", rng.Intn(6))
	if rng.Intn(4) == 0 {
		y := int64(1970 + rng.Intn(3))
		return rdf.NewQuad(player, "birthDate", fmt.Sprintf("%d", y),
			temporal.Interval{Start: y, End: y}, 0.9)
	}
	pred := "playsFor"
	if rng.Intn(8) == 0 {
		pred = "worksFor" // evidence that the cascade can also derive
	}
	s := int64(1968 + rng.Intn(12))
	return rdf.NewQuad(player, pred, fmt.Sprintf("club_%d", rng.Intn(4)),
		temporal.Interval{Start: s, End: s + int64(rng.Intn(6))}, 0.7)
}

// TestGrounderMatchesNaiveOracle: the compiled, selectivity-planned,
// parallel grounder must produce exactly the network the naive
// interpreter enumerates — after a cold Close + GroundProgram, and after
// the delta path (RetractFacts / ApplyUpdates / CloseDelta /
// GroundDelta) absorbed random additions and removals.
func TestGrounderMatchesNaiveOracle(t *testing.T) {
	prog := rulelang.MustParse(oracleProgram)
	for seed := int64(1); seed <= 4; seed++ {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(seed))
			st := store.New()
			for i := 0; i < 28; i++ {
				if _, err := st.Add(oracleQuad(rng)); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("seed %d workers %d", seed, workers)
			g := New(st)
			g.Parallelism = workers
			if _, err := g.Close(prog); err != nil {
				t.Fatal(err)
			}
			cs, err := g.GroundProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, label+" cold", g, cs, naiveGround(t, st, prog))

			epoch := st.Epoch()
			sync := func(step string) {
				syncStore(t, g, cs, prog, &epoch)
				checkAgainstOracle(t, label+" "+step, g, cs, naiveGround(t, st, prog))
			}
			var added []rdf.Quad
			for i := 0; i < 5; i++ {
				q := oracleQuad(rng)
				if _, err := st.Add(q); err != nil {
					t.Fatal(err)
				}
				added = append(added, q)
			}
			sync("add")
			// Remove a mix of original and freshly added facts, then
			// bring one back so a retracted atom is revived.
			for i := 0; i < 6; i++ {
				id := store.FactID(rng.Intn(st.IDBound()))
				if st.Live(id) {
					st.Remove(st.Fact(id))
				}
			}
			st.Remove(added[0])
			sync("remove")
			if _, err := st.Add(added[0]); err != nil {
				t.Fatal(err)
			}
			sync("revive")
		}
	}
}
