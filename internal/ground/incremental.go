package ground

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Incremental grounding: the grounder stays alive across solves and
// consumes store deltas instead of re-grounding from scratch.
//
//   - ApplyUpdates interns evidence atoms for added facts and refreshes
//     confidences of updated ones.
//   - CloseDelta seminaively forward-chains only the rule passes that
//     can touch the delta, deriving (or reviving) head atoms.
//   - GroundDelta emits exactly the clause groundings that involve at
//     least one delta atom, merging them into the persistent ClauseSet.
//   - RetractFacts runs a delete/rederive pass over the clause set
//     (inference clauses double as derivation records): atoms that lose
//     every backing are retracted and their clauses tombstoned; atoms
//     still derivable are demoted to derived.
//
// Each phase reports every atom it makes live or changes to the clause
// set's component index (TouchAtom, RemoveAtoms, or a new clause), so
// the index's change log is the one record of what a sync moved.
//
// The maintained invariant, property-tested in the repository root: the
// live atom set and live clause set always equal what a from-scratch
// Close + GroundProgram over the current store state would produce, so
// a canonically-ordered solve over the incremental state is
// byte-identical to a fresh one.

// ApplyUpdates brings the atom table up to date with facts added or
// updated in the main store since the grounder last synced. It returns
// the atoms that became newly live — the seed delta for CloseDelta and
// GroundDelta. Updated facts only refresh confidences (priors are
// rebuilt every solve) and add nothing to the delta; an added fact whose
// statement was already live as a derived atom flips it to evidence
// without re-grounding, since it was matchable all along. Every
// evidence-state change is reported to cs's component index (TouchAtom),
// so component solution caches observe prior changes that touch no
// clause.
func (g *Grounder) ApplyUpdates(cs *ClauseSet, added, updated []store.FactID) []AtomID {
	v := g.main.ReadView()
	for _, fid := range updated {
		k, conf := evidenceKey(v, fid)
		if id, ok := g.atoms.lookupKey(k); ok {
			g.atoms.SetEvidence(id, conf, fid)
			cs.TouchAtom(id)
		}
	}
	var delta []AtomID
	for _, fid := range added {
		k, conf := evidenceKey(v, fid)
		id, ok := g.atoms.lookupKey(k)
		if !ok {
			id = g.atoms.internEvidence(k, conf, fid)
			cs.TouchAtom(id)
			delta = append(delta, id)
			continue
		}
		if g.atoms.IsRetracted(id) {
			// The statement returns after a removal: newly live again.
			g.atoms.SetEvidence(id, conf, fid)
			cs.TouchAtom(id)
			delta = append(delta, id)
			continue
		}
		if !g.atoms.IsEvidence(id) {
			// Live derived atom becomes evidence: the statement moves
			// from the derived store to the main store; its groundings
			// are unchanged.
			g.derived.RemoveCodes(k.s, k.p, k.o, k.iv)
		}
		g.atoms.SetEvidence(id, conf, fid)
		cs.TouchAtom(id)
	}
	return delta
}

// evidenceKey reads a stored fact's atom key and confidence.
func evidenceKey(v store.View, id store.FactID) (atomKey, float64) {
	fc := v.FactCodes(id)
	return atomKey{s: fc.S, p: fc.P, o: fc.O, iv: fc.Interval}, fc.Conf
}

// CloseDelta seminaively forward-chains the inference rules starting
// from the delta atoms, interning every newly derivable head. It returns
// the atoms that became live (fresh or revived), excluding the input
// delta, and touches each in cs once: a revived atom may hold stale
// component links from before its retraction, which the touch's lazy
// resplit dissolves. Only rules whose body can match a delta atom's
// predicate run, and each pass pins one body position to the delta, so
// work scales with the delta rather than the knowledge graph.
func (g *Grounder) CloseDelta(prog *logic.Program, cs *ClauseSet, delta []AtomID) ([]AtomID, error) {
	derived, err := g.chain(prog, delta)
	for _, a := range derived {
		cs.TouchAtom(a)
	}
	return derived, err
}

// chain runs the seminaive rounds of CloseDelta (and of Close, whose
// clause set does not exist yet) without touching any clause set.
func (g *Grounder) chain(prog *logic.Program, delta []AtomID) ([]AtomID, error) {
	rules := prog.InferenceRules()
	if len(rules) == 0 || len(delta) == 0 {
		return nil, nil
	}
	start := time.Now()
	defer func() { g.statTotal += time.Since(start) }()
	var allNew []AtomID
	for cur, round := delta, 0; len(cur) > 0; round++ {
		if round >= g.MaxRounds {
			return allNew, fmt.Errorf("ground: forward chaining exceeded %d rounds; rule cascade may be unbounded", g.MaxRounds)
		}
		tasks, err := g.deltaJoinTasks(rules, cur)
		if err != nil {
			return allNew, err
		}
		if cur, err = g.derive(tasks); err != nil {
			return allNew, err
		}
		allNew = append(allNew, cur...)
	}
	return allNew, nil
}

// GroundDelta grounds the program restricted to groundings involving at
// least one delta atom, merging the resulting clauses into cs. Call
// CloseDelta first so every derivable head atom exists. The delta must
// list the atoms that became live since cs was last complete: the
// seminaive stratification emits each new grounding exactly once, and
// groundings without delta atoms are already in cs.
func (g *Grounder) GroundDelta(prog *logic.Program, cs *ClauseSet, delta []AtomID) error {
	if len(delta) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { g.statTotal += time.Since(start) }()
	tasks, err := g.deltaJoinTasks(prog.Rules, delta)
	if err != nil {
		return err
	}
	return g.emitClauses(tasks, cs)
}

// RetractFacts reconciles the grounder with facts tombstoned in the main
// store: a delete/rederive pass over the persistent clause set (whose
// inference clauses are exactly the rule derivations) decides which
// atoms lost every backing. Those are retracted and their clauses
// tombstoned; evidence atoms that remain derivable are demoted to
// derived atoms instead.
func (g *Grounder) RetractFacts(cs *ClauseSet, removed []store.FactID) error {
	if len(removed) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { g.statTotal += time.Since(start) }()
	lost := make(map[AtomID]bool, len(removed))
	lostList := make([]AtomID, 0, len(removed))
	v := g.main.ReadView()
	for _, fid := range removed {
		k, _ := evidenceKey(v, fid)
		id, ok := g.atoms.lookupKey(k)
		if !ok {
			return fmt.Errorf("ground: removed fact %v was never interned", g.main.Fact(fid).Fact())
		}
		lost[id] = true
		lostList = append(lostList, id)
	}

	// Overdelete: an atom is tentatively dead when a removed or
	// tentatively-dead atom appears in the body of one of its supports
	// and no live evidence backs it. The closure overshoots; the
	// rederive pass below rescues what independent derivations sustain.
	tentative := make(map[AtomID]bool, len(lostList))
	queue := append([]AtomID(nil), lostList...)
	for _, a := range lostList {
		tentative[a] = true
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		cs.SupportScan(b, func(head AtomID, c *Clause) bool {
			if head == b || tentative[head] {
				return true
			}
			if g.atoms.IsEvidence(head) && !lost[head] {
				return true // evidence-backed: alive regardless of rules
			}
			tentative[head] = true
			queue = append(queue, head)
			return true
		})
	}

	// Rederive: least fixpoint of "has a support whose body is alive".
	// Cycles without external grounding stay dead, matching what a
	// from-scratch Close would (not) derive.
	rescued := make(map[AtomID]bool)
	alive := func(b AtomID) bool {
		if rescued[b] {
			return true
		}
		return !tentative[b] && !g.atoms.IsRetracted(b)
	}
	for changed := true; changed; {
		changed = false
		for t := range tentative {
			if rescued[t] {
				continue
			}
			saved := false
			cs.SupportScan(t, func(head AtomID, c *Clause) bool {
				if head != t {
					return true
				}
				for _, l := range c.Lits {
					if l.Neg && !alive(l.Atom) {
						return true // this derivation lost a premise
					}
				}
				saved = true
				return false
			})
			if saved {
				rescued[t] = true
				changed = true
			}
		}
	}

	deleted := make([]AtomID, 0, len(tentative))
	for t := range tentative {
		if !rescued[t] {
			deleted = append(deleted, t)
		}
	}
	sort.Slice(deleted, func(i, j int) bool { return deleted[i] < deleted[j] })
	for _, a := range deleted {
		if !g.atoms.IsEvidence(a) {
			k := g.atoms.keys[a]
			g.derived.RemoveCodes(k.s, k.p, k.o, k.iv)
		}
		g.atoms.Retract(a)
	}
	cs.RemoveAtoms(deleted)
	for _, a := range lostList {
		if !rescued[a] {
			continue
		}
		// The statement is still derivable: keep the atom as derived and
		// make it matchable through the derived store, exactly where a
		// from-scratch Close would put it. The demotion changes the
		// atom's prior, so its component is touched.
		g.atoms.SetDerived(a)
		cs.TouchAtom(a)
		k := g.atoms.keys[a]
		g.derived.AddCodes(k.s, k.p, k.o, k.iv, 1)
	}
	return nil
}

// deltaJoinTasks plans the seminaive passes for one delta: for every
// rule and every body position whose atom can match a delta statement,
// one task joins with that position pinned to the delta, earlier
// positions excluded from it, and later positions unrestricted. Depth-0
// candidates are seeded directly from the delta atoms, so pass cost
// scales with the delta.
func (g *Grounder) deltaJoinTasks(rules []*logic.Rule, delta []AtomID) ([]joinTask, error) {
	g.refreshViews()
	ids := append([]AtomID(nil), delta...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	set := make(map[AtomID]bool, len(ids))
	for _, a := range ids {
		set[a] = true
	}
	var tasks []joinTask
	for _, r := range rules {
		for i := range r.Body {
			var seedAtoms []AtomID
			for _, a := range ids {
				if bodyMatchesKey(r.Body[i], g.atoms.Info(a).Key) {
					seedAtoms = append(seedAtoms, a)
				}
			}
			if len(seedAtoms) == 0 {
				continue
			}
			kind := make([]int8, len(r.Body))
			for j := range kind {
				switch {
				case j == i:
					kind[j] = bindDelta
				case j < i:
					kind[j] = bindOld
				default:
					kind[j] = bindAny
				}
			}
			cr, err := g.compileRule(r, i)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, joinTask{
				rule: r, cr: cr, seedAtoms: seedAtoms, mode: &deltaMode{set: set, kind: kind},
			})
		}
	}
	return tasks, nil
}

// bodyMatchesKey reports whether the body atom's constant positions are
// compatible with the statement key (variable positions match anything;
// repeated variables are re-checked by the join itself).
func bodyMatchesKey(a logic.QuadAtom, k rdf.FactKey) bool {
	if !a.S.IsVar() && a.S.Const != k.S {
		return false
	}
	if !a.P.IsVar() && a.P.Const != k.P {
		return false
	}
	if !a.O.IsVar() && a.O.Const != k.O {
		return false
	}
	if a.T.Kind == logic.TimeConst && a.T.Const != k.Interval {
		return false
	}
	return true
}

func keyQuad(k rdf.FactKey) rdf.Quad {
	return rdf.Quad{Subject: k.S, Predicate: k.P, Object: k.O, Interval: k.Interval, Confidence: 1}
}

// CanonicalAtoms returns the live atoms sorted by CompareCanonical.
func CanonicalAtoms(t *AtomTable) []AtomID {
	var live []AtomID
	for i := 0; i < t.Len(); i++ {
		if !t.IsRetracted(AtomID(i)) {
			live = append(live, AtomID(i))
		}
	}
	slices.SortFunc(live, t.CompareCanonical)
	return live
}

// CanonicalVarMap inverts CanonicalAtoms into an AtomID-indexed slice of
// canonical variable indexes (-1 for retracted atoms).
func CanonicalVarMap(t *AtomTable, order []AtomID) []int32 {
	varOf := make([]int32, t.Len())
	for i := range varOf {
		varOf[i] = -1
	}
	for v, a := range order {
		varOf[a] = int32(v)
	}
	return varOf
}

func canonicalClauseLess(a, b *Clause) bool {
	na, nb := len(a.Lits), len(b.Lits)
	n := na
	if nb < n {
		n = nb
	}
	for i := 0; i < n; i++ {
		la, lb := a.Lits[i], b.Lits[i]
		if la.Atom != lb.Atom {
			return la.Atom < lb.Atom
		}
		if la.Neg != lb.Neg {
			return !la.Neg
		}
	}
	if na != nb {
		return na < nb
	}
	return a.Rule < b.Rule
}
