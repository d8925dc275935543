package ground

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/temporal"
)

// Compiled grounding. Three dictionaries are in play during a join: the
// main store's, the derived store's, and the atom table's private one.
// The compiled path elects the atom dictionary as the canonical binding
// space — frames bind atom codes, rule constants are resolved to atom
// codes once per phase, and store matches are translated through the
// code maps below instead of hashing N-triples strings per visited quad.

// codeMaps are bidirectional translation tables between store term codes
// and atom-table term codes. Code 0 (NoTerm) marks an unpaired entry:
// the term exists in one dictionary but not the other, so nothing on the
// other side can match it. Tables are append-only and synced at
// refreshViews — a sequential point — via watermarks, so workers read
// them lock-free during a phase.
type codeMaps struct {
	mainToAtom    []store.TermID // main-store code -> atom code
	derivedToAtom []store.TermID // derived-store code -> atom code
	atomToMain    []store.TermID // atom code -> main-store code
	atomToDerived []store.TermID // atom code -> derived-store code

	// Watermarks: codes below these are already synced. A pairing is
	// recorded by whichever dictionary interned the term later, and every
	// sync direction writes both tables, so no pairing is missed.
	mainDone, derivedDone, atomDone int
}

func growIDs(s []store.TermID, n int) []store.TermID {
	if len(s) >= n {
		return s
	}
	return append(s, make([]store.TermID, n-len(s))...)
}

// syncCodeMaps extends the translation tables to cover every term code
// assigned since the last sync. Must run at a sequential point, after
// refreshing the views it reads.
func (g *Grounder) syncCodeMaps() {
	mts := g.mainView.Terms()
	dts := g.derivedView.Terms()
	ad := g.atoms.dict
	na := ad.Len() + 1 // atom codes are 1..Len
	m := &g.maps
	m.mainToAtom = growIDs(m.mainToAtom, len(mts))
	m.derivedToAtom = growIDs(m.derivedToAtom, len(dts))
	m.atomToMain = growIDs(m.atomToMain, na)
	m.atomToDerived = growIDs(m.atomToDerived, na)
	for c := max(m.mainDone, 1); c < len(mts); c++ {
		if a, ok := ad.Lookup(mts[c]); ok {
			m.mainToAtom[c] = a
			m.atomToMain[a] = store.TermID(c)
		}
	}
	for c := max(m.derivedDone, 1); c < len(dts); c++ {
		if a, ok := ad.Lookup(dts[c]); ok {
			m.derivedToAtom[c] = a
			m.atomToDerived[a] = store.TermID(c)
		}
	}
	for a := max(m.atomDone, 1); a < na; a++ {
		t := ad.Decode(store.TermID(a))
		if c, ok := g.mainView.LookupTerm(t); ok {
			m.atomToMain[a] = c
			if int(c) < len(m.mainToAtom) {
				m.mainToAtom[c] = store.TermID(a)
			}
		}
		if c, ok := g.derivedView.LookupTerm(t); ok {
			m.atomToDerived[a] = c
			if int(c) < len(m.derivedToAtom) {
				m.derivedToAtom[c] = store.TermID(a)
			}
		}
	}
	m.mainDone, m.derivedDone, m.atomDone = len(mts), len(dts), na
}

// cterm is one compiled term position: a frame slot for variables, or a
// pre-resolved atom-dictionary code for constants (0 when the constant
// is not in the network — it then matches nothing interned).
type cterm struct {
	slot int32 // object-variable slot; -1 for constants
	code store.TermID
}

// cquad is one body atom lowered against the rule's slot map, stored in
// join order.
type cquad struct {
	bodyPos int // original body index; deltaMode is keyed by it
	s, p, o cterm
	tSlot   int32 // time-variable slot; -1 when the atom time is constant
	tConst  temporal.Interval
}

// chead is a compiled HeadAtom: codes for the fast already-interned
// lookup, constant terms kept for materialising pending fact keys.
type chead struct {
	s, p, o    cterm
	sT, pT, oT rdf.Term
	time       logic.TimeProgram
	// valid is false when a head object variable is not bound by the
	// body; every grounding then resolves to a miss, exactly like
	// QuadAtom.Resolve under a body-only binding.
	valid bool
}

// compiledRule is one rule lowered for a single grounding phase. The
// embedded constant codes are only valid while the atom dictionary is
// frozen, so rules are recompiled at each phase's sequential point.
type compiledRule struct {
	rule     *logic.Rule
	sm       *logic.SlotMap
	quads    []cquad                // body atoms in join order
	conds    [][]logic.CompiledCond // scheduled by join depth
	head     chead                  // HeadAtom rules only
	headCond logic.CompiledCond     // HeadCond rules only
}

// decodeAtomCode and encodeAtomCode adapt the atom dictionary to the
// compiled-condition hooks. Read-only: compiled code never interns.
func (g *Grounder) decodeAtomCode(c uint32) rdf.Term {
	return g.atoms.dict.Decode(store.TermID(c))
}

func (g *Grounder) encodeAtomCode(t rdf.Term) (uint32, bool) {
	c, ok := g.atoms.dict.Lookup(t)
	return uint32(c), ok
}

// compileRule plans a rule's join order (body position first pinned to
// the front when >= 0), records the plan in the grounder's stats, and
// lowers the rule against it: variables to dense slots, constants to
// atom codes, conditions to closures.
func (g *Grounder) compileRule(r *logic.Rule, first int) (*compiledRule, error) {
	order, est, err := g.planSelective(r, first)
	if err != nil {
		return nil, err
	}
	g.notePlan(r.Name, order, est)
	sm := logic.BodySlots(r)
	cr := &compiledRule{rule: r, sm: sm}
	cobj := func(t logic.Term) cterm {
		if t.IsVar() {
			slot, _ := sm.ObjSlot(t.Var) // body variables always have slots
			return cterm{slot: int32(slot)}
		}
		code, _ := g.atoms.dict.Lookup(t.Const)
		return cterm{slot: -1, code: code}
	}
	cr.quads = make([]cquad, len(order))
	for d, idx := range order {
		a := r.Body[idx]
		cq := cquad{bodyPos: idx, s: cobj(a.S), p: cobj(a.P), o: cobj(a.O)}
		switch a.T.Kind {
		case logic.TimeVar:
			slot, _ := sm.TimeSlot(a.T.Var)
			cq.tSlot = int32(slot)
		case logic.TimeConst:
			cq.tSlot = -1
			cq.tConst = a.T.Const
		default:
			return nil, fmt.Errorf("ground: body atom %s: time expressions are only allowed in rule heads", a)
		}
		cr.quads[d] = cq
	}
	condAt, err := scheduleConds(r, order)
	if err != nil {
		return nil, err
	}
	cr.conds = make([][]logic.CompiledCond, len(order))
	for d, conds := range condAt {
		for _, c := range conds {
			cc, err := logic.CompileCondition(c, sm, g.decodeAtomCode, g.encodeAtomCode)
			if err != nil {
				return nil, fmt.Errorf("ground: rule %s: %w", r.Name, err)
			}
			cr.conds[d] = append(cr.conds[d], cc)
		}
	}
	switch r.Head.Kind {
	case logic.HeadAtom:
		h := &cr.head
		h.valid = true
		lower := func(t logic.Term, ct *cterm, konst *rdf.Term) {
			if t.IsVar() {
				slot, ok := sm.ObjSlot(t.Var)
				if !ok {
					h.valid = false
					return
				}
				*ct = cterm{slot: int32(slot)}
				return
			}
			code, _ := g.atoms.dict.Lookup(t.Const)
			*ct = cterm{slot: -1, code: code}
			*konst = t.Const
		}
		lower(r.Head.Atom.S, &h.s, &h.sT)
		lower(r.Head.Atom.P, &h.p, &h.pT)
		lower(r.Head.Atom.O, &h.o, &h.oT)
		h.time = logic.CompileTime(r.Head.Atom.T, sm)
	case logic.HeadCond:
		cc, err := logic.CompileCondition(r.Head.Cond, sm, g.decodeAtomCode, g.encodeAtomCode)
		if err != nil {
			return nil, fmt.Errorf("ground: rule %s head: %w", r.Name, err)
		}
		cr.headCond = cc
	}
	return cr, nil
}

// planSelective chooses a join order greedily by estimated candidate
// count from the live index cardinalities: at each step, pick the unused
// body atom expected to match the fewest facts given the variables bound
// so far, ties broken by body position. first >= 0 pins that body
// position to the front (the seminaive delta passes pin the delta atom).
// Estimates are per-store sums over the main and derived views; they are
// upper bounds (tombstones included), which is fine — the planner only
// compares them.
func (g *Grounder) planSelective(r *logic.Rule, first int) ([]int, []float64, error) {
	n := len(r.Body)
	if n == 0 {
		return nil, nil, fmt.Errorf("ground: rule %s has an empty body", r.Name)
	}
	mc := g.mainView.Cardinalities()
	dc := g.derivedView.Cardinalities()
	used := make([]bool, n)
	bound := make(map[string]bool)
	order := make([]int, 0, n)
	est := make([]float64, 0, n)
	pick := func(i int, e float64) {
		used[i] = true
		order = append(order, i)
		est = append(est, e)
		for _, v := range r.Body[i].Vars(nil) {
			bound[v] = true
		}
	}
	if first >= 0 {
		pick(first, g.estimateAtom(r.Body[first], bound, mc, dc))
	}
	for len(order) < n {
		best, bestEst := -1, 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			e := g.estimateAtom(r.Body[i], bound, mc, dc)
			if best < 0 || e < bestEst {
				best, bestEst = i, e
			}
		}
		pick(best, bestEst)
	}
	return order, est, nil
}

// estimateAtom estimates how many stored facts a body atom matches given
// the already-bound variable set.
func (g *Grounder) estimateAtom(a logic.QuadAtom, bound map[string]bool, mc, dc store.IndexCardinalities) float64 {
	return estimateIn(g.mainView, a, bound, mc) + estimateIn(g.derivedView, a, bound, dc)
}

// estimateIn estimates one store's contribution: the shortest posting
// list over constant positions (exact, O(1) per lookup), the average
// posting length for positions bound by a join variable, the total fact
// count otherwise. A constant absent from the store's dictionary matches
// nothing there.
func estimateIn(v store.View, a logic.QuadAtom, bound map[string]bool, card store.IndexCardinalities) float64 {
	if card.Facts == 0 {
		return 0
	}
	est := float64(card.Facts)
	consider := func(t logic.Term, lenOf func(store.TermID) int, distinct int) bool {
		if !t.IsVar() {
			code, ok := v.LookupTerm(t.Const)
			if !ok {
				return false
			}
			if l := float64(lenOf(code)); l < est {
				est = l
			}
			return true
		}
		if bound[t.Var] && distinct > 0 {
			if avg := float64(card.Facts) / float64(distinct); avg < est {
				est = avg
			}
		}
		return true
	}
	if !consider(a.S, v.PostingLenS, card.DistinctS) {
		return 0
	}
	if !consider(a.P, v.PostingLenP, card.DistinctP) {
		return 0
	}
	if !consider(a.O, v.PostingLenO, card.DistinctO) {
		return 0
	}
	return est
}
