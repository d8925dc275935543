package ground

import (
	"fmt"
	"time"

	"repro/internal/logic"
	"repro/internal/store"
)

// Head resolution states reported by compiledEnv.resolveHeadAtom.
const (
	headStateMiss     uint8 = iota // empty time expression or unbound head: no obligation
	headStateResolved              // head atom already interned; id is valid
	headStatePending               // head not interned; key carries its codes
)

// compiledEnv is the view of the current grounding handed to emit
// callbacks: the compiled rule and the frame its join has bound so far.
type compiledEnv struct {
	g  *Grounder
	cr *compiledRule
	fr *logic.Frame
}

// headCode resolves one head position to its store code.
func headCode(ct cterm, fr *logic.Frame) store.TermID {
	if ct.slot >= 0 {
		return store.TermID(fr.Objs[ct.slot])
	}
	return ct.code
}

// resolveHeadAtom instantiates the rule's head atom under the current
// grounding. Only meaningful for HeadAtom rules.
func (e *compiledEnv) resolveHeadAtom() (uint8, AtomID, atomKey) {
	h := &e.cr.head
	if !h.valid {
		return headStateMiss, 0, atomKey{}
	}
	iv, ok := h.time(e.fr)
	if !ok {
		return headStateMiss, 0, atomKey{}
	}
	k := atomKey{s: headCode(h.s, e.fr), p: headCode(h.p, e.fr), o: headCode(h.o, e.fr), iv: iv}
	if id, ok := e.g.atoms.lookupKey(k); ok {
		return headStateResolved, id, atomKey{}
	}
	return headStatePending, 0, k
}

// evalHeadCond evaluates the rule's head condition under the current
// grounding. Only meaningful for HeadCond rules.
func (e *compiledEnv) evalHeadCond() (bool, error) {
	return e.cr.headCond(e.fr)
}

// acodes is one join candidate: the interned atom and its key.
type acodes struct {
	atomKey
	id AtomID
}

// atomOf resolves a stored fact to its interned atom. ok is false when
// the statement was never interned — the fact is not part of the ground
// network.
func (g *Grounder) atomOf(fc store.FactCodes) (acodes, bool) {
	k := atomKey{s: fc.S, p: fc.P, o: fc.O, iv: fc.Interval}
	id, ok := g.atoms.lookupKey(k)
	return acodes{atomKey: k, id: id}, ok
}

// codePatternAt builds the code pattern for the join depth's body atom
// under the current frame; one pattern serves both store views. A time
// variable already bound matches its interval exactly; one this depth
// binds first carries the depth's Allen filter, if any, against the
// other operand's interval. ok=false means no fact can match: a body
// constant is absent from the dictionary (NoTerm must never leak into a
// pattern as "unknown term" — it would read as a wildcard).
func codePatternAt(cq *cquad, fr *logic.Frame) (store.CodePattern, bool) {
	var cp store.CodePattern
	fill := func(ct *cterm, dst *store.TermID) bool {
		c := ct.code
		if ct.slot >= 0 {
			c = store.TermID(fr.Objs[ct.slot]) // 0 when unbound: wildcard
		} else if c == 0 {
			return false
		}
		*dst = c
		return true
	}
	if !fill(&cq.s, &cp.S) || !fill(&cq.p, &cp.P) || !fill(&cq.o, &cp.O) {
		return cp, false
	}
	if cq.tSlot >= 0 {
		switch rel := &cq.rel; {
		case fr.TimeSet[cq.tSlot]:
			cp.Time = store.TimeFilter{Kind: store.TimeEquals, Interval: fr.Times[cq.tSlot]}
		case rel.on:
			iv := rel.iv
			if rel.slot >= 0 {
				iv = fr.Times[rel.slot]
			}
			cp.Time = store.TimeFilter{Kind: store.TimeAllen, Interval: iv, Rels: rel.rels}
		}
	} else {
		cp.Time = store.TimeFilter{Kind: store.TimeEquals, Interval: cq.tConst}
	}
	return cp, true
}

// runJoin enumerates all bindings of the task's compiled rule body over
// its depth-0 chunk, invoking emit with the grounding environment and the
// atom ids of the matched body facts. Safe to run concurrently with other
// tasks: it reads the store views and the atom table only.
// It also records the task's wall time and emission count for the
// grounder's stats.
func (g *Grounder) runJoin(t *joinTask, emitFn func(*compiledEnv, []AtomID) error) error {
	start := time.Now()
	defer func() { t.elapsed += time.Since(start) }()
	emit := func(env *compiledEnv, bodyAtoms []AtomID) error {
		t.emitted++
		return emitFn(env, bodyAtoms)
	}
	cr := t.cr
	fr := logic.NewFrame(cr.sm)
	env := &compiledEnv{g: g, cr: cr, fr: fr}
	bodyAtoms := make([]AtomID, len(cr.quads))
	for _, a := range t.seedAtoms {
		m := acodes{atomKey: g.atoms.keys[a], id: a}
		if err := g.bindCodes(t, 0, env, &m, bodyAtoms, emit); err != nil {
			return err
		}
	}
	for _, id := range t.mainIDs {
		m, ok := g.atomOf(g.mainView.FactCodes(id))
		if !ok {
			continue
		}
		if err := g.bindCodes(t, 0, env, &m, bodyAtoms, emit); err != nil {
			return err
		}
	}
	for _, id := range t.derivedIDs {
		m, ok := g.atomOf(g.derivedView.FactCodes(id))
		if !ok {
			continue
		}
		if err := g.bindCodes(t, 0, env, &m, bodyAtoms, emit); err != nil {
			return err
		}
	}
	return nil
}

// bindPos extends the frame with one matched position: constants compare
// by code, bound variables check consistency, unbound variables bind and
// are recorded in slots for the caller's undo. A plain function (not a
// closure) so the per-quad hot path allocates nothing.
func bindPos(fr *logic.Frame, ct *cterm, code store.TermID, slots *[3]int32, n *int8) bool {
	if ct.slot < 0 {
		return ct.code == code // code 0 (absent constant) matches nothing
	}
	if cur := fr.Objs[ct.slot]; cur != 0 {
		return cur == uint32(code)
	}
	fr.Objs[ct.slot] = uint32(code)
	slots[*n] = ct.slot
	*n++
	return true
}

// unbindObjs undoes the object bindings recorded in slots[:n].
func unbindObjs(fr *logic.Frame, slots *[3]int32, n int8) {
	for i := int8(0); i < n; i++ {
		fr.Objs[slots[i]] = 0
	}
}

// unbindAll undoes the object bindings and, when tslot >= 0, the time
// binding this step made.
func unbindAll(fr *logic.Frame, slots *[3]int32, n int8, tslot int32) {
	unbindObjs(fr, slots, n)
	if tslot >= 0 {
		fr.TimeSet[tslot] = false
	}
}

// bindCodes extends the frame with candidate m at
// depth, evaluate the conditions that just became fully bound, recurse,
// undo exactly what this step bound.
func (g *Grounder) bindCodes(t *joinTask, depth int, env *compiledEnv, m *acodes,
	bodyAtoms []AtomID, emit func(*compiledEnv, []AtomID) error) error {

	cr := t.cr
	cq := &cr.quads[depth]
	if !t.mode.admits(cq.bodyPos, m.id) {
		return nil // outside this seminaive pass's stratum
	}
	fr := env.fr
	var slots [3]int32
	var n int8
	if !bindPos(fr, &cq.s, m.s, &slots, &n) ||
		!bindPos(fr, &cq.p, m.p, &slots, &n) ||
		!bindPos(fr, &cq.o, m.o, &slots, &n) {
		unbindObjs(fr, &slots, n)
		return nil
	}
	tslot := int32(-1)
	if cq.tSlot >= 0 {
		if fr.TimeSet[cq.tSlot] {
			if fr.Times[cq.tSlot] != m.iv {
				unbindObjs(fr, &slots, n)
				return nil
			}
		} else {
			fr.Times[cq.tSlot] = m.iv
			fr.TimeSet[cq.tSlot] = true
			tslot = cq.tSlot
		}
	} else if cq.tConst != m.iv {
		unbindObjs(fr, &slots, n)
		return nil
	}
	for _, cond := range cr.conds[depth] {
		holds, err := cond(fr)
		if err != nil {
			unbindAll(fr, &slots, n, tslot)
			return fmt.Errorf("ground: rule %s: %w", cr.rule.Name, err)
		}
		if !holds {
			unbindAll(fr, &slots, n, tslot)
			return nil
		}
	}
	bodyAtoms[depth] = m.id
	err := g.descendCodes(t, depth+1, env, bodyAtoms, emit)
	unbindAll(fr, &slots, n, tslot)
	return err
}

// descendCodes enumerates store matches for the join depth's body atom
// (emitting when every atom is bound), resolving each match to its atom
// and binding it in turn.
func (g *Grounder) descendCodes(t *joinTask, depth int, env *compiledEnv,
	bodyAtoms []AtomID, emit func(*compiledEnv, []AtomID) error) error {

	if depth == len(t.cr.quads) {
		return emit(env, bodyAtoms)
	}
	cp, ok := codePatternAt(&t.cr.quads[depth], env.fr)
	if !ok {
		return nil
	}
	var innerErr error
	visit := func(_ store.FactID, fc store.FactCodes) bool {
		m, ok := g.atomOf(fc)
		if !ok {
			return true
		}
		if err := g.bindCodes(t, depth, env, &m, bodyAtoms, emit); err != nil {
			innerErr = err
			return false
		}
		return true
	}
	g.mainView.MatchCodes(cp, visit)
	if innerErr == nil && g.derivedView.Len() > 0 {
		g.derivedView.MatchCodes(cp, visit)
	}
	return innerErr
}
