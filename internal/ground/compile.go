package ground

import (
	"fmt"
	"math"

	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/temporal"
)

// Compiled grounding runs in one code space: the evidence store's
// dictionary. Frames bind its codes, atom keys and the derived store's
// facts are written in them, and rule constants are resolved to them once
// per phase — body constants by lookup, head constants by interning — so
// a join step compares and indexes codes without translating them.

// cterm is one compiled term position: a frame slot for variables, or a
// pre-resolved store code for constants (0 when a body constant is not in
// the dictionary — it then matches nothing).
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
	// rel, when on, is the Allen condition pushed into this depth's store
	// match; set only where this depth first binds tSlot.
	rel timeRel
}

// timeRel is an Allen condition lowered to a store-side time filter at
// the join depth that first binds one of its time variables: a candidate
// interval iv is kept iff rels.Has(RelationBetween(other, iv)), where
// other is the time slot bound at an earlier depth or, when slot < 0,
// the constant iv.
type timeRel struct {
	on   bool
	slot int32
	iv   temporal.Interval
	rels temporal.RelationSet
}

// chead is a compiled HeadAtom. Its constants are interned into the
// store's dictionary at compile time, so every resolved head is a full
// code key: looked up as an atom, or carried as a pending one.
type chead struct {
	s, p, o cterm
	time    logic.TimeProgram
	// valid is false when a head object variable is not bound by the
	// body; every grounding then resolves to a miss, exactly like
	// QuadAtom.Resolve under a body-only binding.
	valid bool
}

// compiledRule is one rule lowered for a single grounding phase. A body
// constant absent from the dictionary compiles to 0 and may be interned
// later, so rules are recompiled at each phase's sequential point.
type compiledRule struct {
	rule     *logic.Rule
	sm       *logic.SlotMap
	quads    []cquad                // body atoms in join order
	conds    [][]logic.CompiledCond // scheduled by join depth
	head     chead                  // HeadAtom rules only
	headCond logic.CompiledCond     // HeadCond rules only
}

// decodeCode and encodeCode adapt the store's dictionary to the
// compiled-condition hooks. A frame binds codes of matched atoms only, so
// the atom table's term prefix decodes every one. Read-only: conditions
// never intern.
func (g *Grounder) decodeCode(c uint32) rdf.Term {
	return g.atoms.terms[c]
}

func (g *Grounder) encodeCode(t rdf.Term) (uint32, bool) {
	c, ok := g.main.TermCode(t)
	return uint32(c), ok
}

// compileRule plans a rule's join order (body position first pinned to
// the front when >= 0), records the plan in the grounder's stats, and
// lowers the rule against it: variables to dense slots, constants to
// store codes, conditions to closures.
func (g *Grounder) compileRule(r *logic.Rule, first int) (*compiledRule, error) {
	order, err := g.planJoin(r, first)
	if err != nil {
		return nil, err
	}
	g.notePlan(r.Name, order)
	sm := logic.BodySlots(r)
	cr := &compiledRule{rule: r, sm: sm}
	cobj := func(t logic.Term) cterm {
		if t.IsVar() {
			slot, _ := sm.ObjSlot(t.Var) // body variables always have slots
			return cterm{slot: int32(slot)}
		}
		code, _ := g.main.TermCode(t.Const)
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
	pushAllen(r, sm, order, cr.quads)
	condAt, err := scheduleConds(r, order)
	if err != nil {
		return nil, err
	}
	cr.conds = make([][]logic.CompiledCond, len(order))
	for d, conds := range condAt {
		for _, c := range conds {
			cc, err := logic.CompileCondition(c, sm, g.decodeCode, g.encodeCode)
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
		lower := func(t logic.Term) cterm {
			if !t.IsVar() {
				return cterm{slot: -1, code: g.main.InternTerm(t.Const)}
			}
			slot, ok := sm.ObjSlot(t.Var)
			if !ok {
				h.valid = false
			}
			return cterm{slot: int32(slot)}
		}
		h.s, h.p, h.o = lower(r.Head.Atom.S), lower(r.Head.Atom.P), lower(r.Head.Atom.O)
		h.time = logic.CompileTime(r.Head.Atom.T, sm)
	case logic.HeadCond:
		cc, err := logic.CompileCondition(r.Head.Cond, sm, g.decodeCode, g.encodeCode)
		if err != nil {
			return nil, fmt.Errorf("ground: rule %s head: %w", r.Name, err)
		}
		cr.headCond = cc
	}
	return cr, nil
}

// pushAllen gives each join depth at most one Allen filter (see timeRel)
// from the rule's conditions: a body condition keeps its relations, a
// constraint head keeps their complement — a grounding whose head holds
// emits nothing — and a condition whose left operand binds at the later
// depth is turned round, each relation mapped to its converse. Of several
// conditions on one depth the one admitting fewest relations wins.
// Operands that are interval expressions, or the same variable twice,
// give no filter. A filter drops only candidates under which the
// condition is false, and every condition is still evaluated in the
// join, so the groundings that emit are exactly those of an unfiltered
// join, in the same order.
//
// A rule with a condition that can fail to evaluate (arithmetic, an
// interval expression, a time variable the body does not bind) gets no
// filter: pruning could skip the grounding that reports the error.
func pushAllen(r *logic.Rule, sm *logic.SlotMap, order []int, quads []cquad) {
	firstT := make(map[string]int, len(order))
	for d, idx := range order {
		if t := r.Body[idx].T; t.Kind == logic.TimeVar {
			if _, seen := firstT[t.Var]; !seen {
				firstT[t.Var] = d
			}
		}
	}
	// depthOf is the depth at which a plain operand is known: -1 for a
	// constant. ok is false for anything else.
	depthOf := func(t logic.TimeTerm) (int, bool) {
		switch t.Kind {
		case logic.TimeConst:
			return -1, true
		case logic.TimeVar:
			d, ok := firstT[t.Var]
			return d, ok
		}
		return 0, false
	}
	conds := r.Conds
	if r.Head.Kind == logic.HeadCond {
		conds = append(conds[:len(conds):len(conds)], r.Head.Cond)
	}
	best := make([]timeRel, len(quads))
	for i, c := range conds {
		var ac logic.AllenCond
		switch c := c.(type) {
		case logic.CompareCond:
			continue
		case logic.AllenCond:
			ac = c
		default:
			return
		}
		ld, lok := depthOf(ac.L)
		rd, rok := depthOf(ac.R)
		if !lok || !rok {
			return
		}
		if ld == rd {
			continue // rel(t, t) or two constants: nothing to filter
		}
		rels := ac.Rels
		if i == len(r.Conds) { // the constraint head
			rels = temporal.FullSet &^ rels
		}
		other, d := ac.L, rd
		if ld > rd {
			other, d, rels = ac.R, ld, rels.Inverse()
		}
		f := timeRel{on: true, slot: -1, rels: rels}
		if other.Kind == logic.TimeVar {
			slot, _ := sm.TimeSlot(other.Var)
			f.slot = int32(slot)
		} else {
			f.iv = other.Const
		}
		if b := &best[d]; !b.on || rels.Len() < b.rels.Len() {
			*b = f
		}
	}
	for d := range quads {
		quads[d].rel = best[d]
	}
}

// planJoin chooses a join order greedily from the rule and the posting
// lists: at each step it takes the unused body atom with the most bound
// subject, predicate and object positions (constants plus variables
// bound by earlier picks), then the shortest constant posting list
// summed over the main and derived views, then the lowest body position.
// A constant absent from the dictionary is an empty list, so an atom
// that matches nothing leads its tier. Posting lengths are upper bounds
// (tombstones included), which is fine — the planner only compares them.
// first >= 0 pins that body position to the front (the seminaive delta
// passes pin the delta atom).
func (g *Grounder) planJoin(r *logic.Rule, first int) ([]int, error) {
	n := len(r.Body)
	if n == 0 {
		return nil, fmt.Errorf("ground: rule %s has an empty body", r.Name)
	}
	shortest := make([]int, n)
	for i, a := range r.Body {
		shortest[i] = math.MaxInt
		for pos, t := range [3]logic.Term{a.S, a.P, a.O} {
			if t.IsVar() {
				continue
			}
			l := 0
			if code, ok := g.main.TermCode(t.Const); ok {
				l = g.mainView.PostingLen(pos, code) + g.derivedView.PostingLen(pos, code)
			}
			shortest[i] = min(shortest[i], l)
		}
	}
	used := make([]bool, n)
	bound := make(map[string]bool)
	order := make([]int, 0, n)
	pick := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, v := range r.Body[i].Vars(nil) {
			bound[v] = true
		}
	}
	if first >= 0 {
		pick(first)
	}
	for len(order) < n {
		best, bestBound := -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			b := 0
			for _, t := range [3]logic.Term{r.Body[i].S, r.Body[i].P, r.Body[i].O} {
				if !t.IsVar() || bound[t.Var] {
					b++
				}
			}
			if best < 0 || b > bestBound || b == bestBound && shortest[i] < shortest[best] {
				best, bestBound = i, b
			}
		}
		pick(best)
	}
	return order, nil
}
