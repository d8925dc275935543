package logic

// Compiled-grounding support: variables numbered into dense slots,
// slice-indexed binding frames over dictionary codes, and conditions
// lowered to closures. The grounder compiles each rule once per phase
// and then joins over Frames instead of map[string]-keyed Bindings —
// the per-matched-quad map churn this replaces was the join's dominant
// constant factor.

import (
	"fmt"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// SlotMap numbers a rule's variables into dense slots. Object variables
// and time variables live in separate spaces (they are separate maps in
// Binding too). Slots are assigned in first-appearance order over the
// body atoms in written order, so the numbering is independent of the
// join plan.
type SlotMap struct {
	objs  map[string]int
	times map[string]int
}

// BodySlots builds the slot map of a rule body.
func BodySlots(r *Rule) *SlotMap {
	sm := &SlotMap{objs: make(map[string]int), times: make(map[string]int)}
	var scratch []string
	for _, a := range r.Body {
		for _, t := range [3]Term{a.S, a.P, a.O} {
			if t.IsVar() {
				if _, ok := sm.objs[t.Var]; !ok {
					sm.objs[t.Var] = len(sm.objs)
				}
			}
		}
		scratch = a.T.Vars(scratch[:0])
		for _, v := range scratch {
			if _, ok := sm.times[v]; !ok {
				sm.times[v] = len(sm.times)
			}
		}
	}
	return sm
}

// ObjSlot returns the slot of an object variable.
func (sm *SlotMap) ObjSlot(v string) (int, bool) {
	s, ok := sm.objs[v]
	return s, ok
}

// TimeSlot returns the slot of a time variable.
func (sm *SlotMap) TimeSlot(v string) (int, bool) {
	s, ok := sm.times[v]
	return s, ok
}

// NumObjs returns the number of object-variable slots.
func (sm *SlotMap) NumObjs() int { return len(sm.objs) }

// NumTimes returns the number of time-variable slots.
func (sm *SlotMap) NumTimes() int { return len(sm.times) }

// Frame is the compiled join's binding: object slots hold dictionary
// codes (0 = unbound; real codes start at 1), time slots hold intervals
// with a parallel bound-bit slice. Which dictionary the codes come from
// is the caller's contract — the grounder binds its atom-table codes.
type Frame struct {
	Objs    []uint32
	Times   []temporal.Interval
	TimeSet []bool
}

// NewFrame returns an empty frame sized for the slot map.
func NewFrame(sm *SlotMap) *Frame {
	return &Frame{
		Objs:    make([]uint32, sm.NumObjs()),
		Times:   make([]temporal.Interval, sm.NumTimes()),
		TimeSet: make([]bool, sm.NumTimes()),
	}
}

// TimeProgram evaluates a compiled time term against a frame; ok is
// false when a variable is unbound or an intersection is empty,
// mirroring Binding.ResolveTime exactly.
type TimeProgram func(*Frame) (temporal.Interval, bool)

// CompileTime lowers a time term to a closure over frames. Variables
// absent from the slot map (possible only in rule heads) compile to an
// always-unbound program, matching ResolveTime on a binding that never
// assigns them.
func CompileTime(t TimeTerm, sm *SlotMap) TimeProgram {
	switch t.Kind {
	case TimeVar:
		slot, ok := sm.TimeSlot(t.Var)
		if !ok {
			return timeMiss
		}
		return func(fr *Frame) (temporal.Interval, bool) {
			return fr.Times[slot], fr.TimeSet[slot]
		}
	case TimeConst:
		iv := t.Const
		return func(*Frame) (temporal.Interval, bool) { return iv, true }
	case TimeIntersect:
		l, r := CompileTime(*t.L, sm), CompileTime(*t.R, sm)
		return func(fr *Frame) (temporal.Interval, bool) {
			lv, ok := l(fr)
			if !ok {
				return temporal.Interval{}, false
			}
			rv, ok := r(fr)
			if !ok {
				return temporal.Interval{}, false
			}
			return lv.Intersect(rv)
		}
	case TimeSpan:
		l, r := CompileTime(*t.L, sm), CompileTime(*t.R, sm)
		return func(fr *Frame) (temporal.Interval, bool) {
			lv, ok := l(fr)
			if !ok {
				return temporal.Interval{}, false
			}
			rv, ok := r(fr)
			if !ok {
				return temporal.Interval{}, false
			}
			return lv.Span(rv), true
		}
	default:
		return timeMiss
	}
}

func timeMiss(*Frame) (temporal.Interval, bool) { return temporal.Interval{}, false }

// TermDecoder resolves a dictionary code bound in a frame back to its
// RDF term — the grounder supplies the evidence store's dictionary,
// whose codes its frames bind. Only the ordered and numeric comparisons
// need it; equality runs on codes alone.
type TermDecoder func(uint32) rdf.Term

// TermEncoder resolves a constant RDF term to the code space frames bind
// in; ok is false for terms absent from the dictionary, which therefore
// cannot equal any bound variable.
type TermEncoder func(rdf.Term) (uint32, bool)

// CompiledCond is a condition lowered against a slot map, evaluated on a
// frame with the same semantics (including error cases) as
// Condition.Eval on the equivalent binding.
type CompiledCond func(*Frame) (bool, error)

// CompileCondition lowers a condition to a closure over frames. Because
// constants are encoded at compile time, the result is only valid while
// the encoder's dictionary is frozen — the grounder compiles per phase.
func CompileCondition(c Condition, sm *SlotMap, dec TermDecoder, enc TermEncoder) (CompiledCond, error) {
	switch c := c.(type) {
	case AllenCond:
		l, r := CompileTime(c.L, sm), CompileTime(c.R, sm)
		rels := c.Rels
		return func(fr *Frame) (bool, error) {
			lv, ok := l(fr)
			if !ok {
				return false, fmt.Errorf("logic: unbound time term %s in %s", c.L, c)
			}
			rv, ok := r(fr)
			if !ok {
				return false, fmt.Errorf("logic: unbound time term %s in %s", c.R, c)
			}
			return rels.Has(temporal.RelationBetween(lv, rv)), nil
		}, nil
	case CompareCond:
		return compileCompare(c, sm, dec, enc)
	case ArithCond:
		l, err := compileNum(c.L, sm, dec)
		if err != nil {
			return nil, err
		}
		r, err := compileNum(c.R, sm, dec)
		if err != nil {
			return nil, err
		}
		op := c.Op
		return func(fr *Frame) (bool, error) {
			lv, err := l(fr)
			if err != nil {
				return false, err
			}
			rv, err := r(fr)
			if err != nil {
				return false, err
			}
			return op.applyInt(lv, rv), nil
		}, nil
	default:
		// Unknown condition types have no compiled form; a third-party
		// Condition must not silently misground.
		return nil, fmt.Errorf("logic: cannot compile condition %s", c)
	}
}

// codeGetter produces the frame code of one comparison side; ok is false
// when a constant is absent from the dictionary (it then equals nothing
// bound). Unbound variables report an error through the returned term
// getter instead — they indicate a scheduling bug, like Condition.Eval.
func compileCompare(c CompareCond, sm *SlotMap, dec TermDecoder, enc TermEncoder) (CompiledCond, error) {
	type side struct {
		slot int    // -1 for constants
		code uint32 // constant's code; 0 when absent from the dictionary
		term Term
	}
	lower := func(t Term) (side, error) {
		if t.IsVar() {
			slot, ok := sm.ObjSlot(t.Var)
			if !ok {
				return side{}, fmt.Errorf("logic: unbound term %s in %s", t, c)
			}
			return side{slot: slot, term: t}, nil
		}
		code, _ := enc(t.Const)
		return side{slot: -1, code: code, term: t}, nil
	}
	l, err := lower(c.L)
	if err != nil {
		return nil, err
	}
	r, err := lower(c.R)
	if err != nil {
		return nil, err
	}
	codeOf := func(s side, fr *Frame) (uint32, error) {
		if s.slot < 0 {
			return s.code, nil
		}
		code := fr.Objs[s.slot]
		if code == 0 {
			return 0, fmt.Errorf("logic: unbound term %s in %s", s.term, c)
		}
		return code, nil
	}
	switch c.Op {
	case EQ, NE:
		// Codes are unique per term, so code equality is term equality. A
		// constant absent from the dictionary (code 0) can never equal a
		// bound variable's code (always >= 1) — and two such constants
		// compare by term below, at compile time.
		if l.slot < 0 && r.slot < 0 {
			res := l.term.Const == r.term.Const
			if c.Op == NE {
				res = !res
			}
			return func(*Frame) (bool, error) { return res, nil }, nil
		}
		eq := c.Op == EQ
		return func(fr *Frame) (bool, error) {
			lc, err := codeOf(l, fr)
			if err != nil {
				return false, err
			}
			rc, err := codeOf(r, fr)
			if err != nil {
				return false, err
			}
			return (lc == rc) == eq, nil
		}, nil
	default:
		termOf := func(s side, fr *Frame) (rdf.Term, error) {
			if s.slot < 0 {
				return s.term.Const, nil
			}
			code, err := codeOf(s, fr)
			if err != nil {
				return rdf.Term{}, err
			}
			return dec(code), nil
		}
		op := c.Op
		return func(fr *Frame) (bool, error) {
			lt, err := termOf(l, fr)
			if err != nil {
				return false, err
			}
			rt, err := termOf(r, fr)
			if err != nil {
				return false, err
			}
			ln, lerr := termNumber(lt)
			rn, rerr := termNumber(rt)
			if lerr == nil && rerr == nil {
				return op.applyInt(ln, rn), nil
			}
			return op.applyInt(int64(compareStrings(lt.Value, rt.Value)), 0), nil
		}, nil
	}
}

type numProgram func(*Frame) (int64, error)

func compileNum(e NumExpr, sm *SlotMap, dec TermDecoder) (numProgram, error) {
	switch e := e.(type) {
	case NumConst:
		v := int64(e)
		return func(*Frame) (int64, error) { return v, nil }, nil
	case TimeNum:
		tp := CompileTime(e.T, sm)
		acc := e.Acc
		return func(fr *Frame) (int64, error) {
			iv, ok := tp(fr)
			if !ok {
				return 0, fmt.Errorf("logic: unbound time term %s", e.T)
			}
			switch acc {
			case AccStart:
				return iv.Start, nil
			case AccEnd:
				return iv.End, nil
			case AccDuration:
				return iv.Duration(), nil
			default:
				return 0, fmt.Errorf("logic: unknown time accessor %d", acc)
			}
		}, nil
	case ObjNum:
		if !e.T.IsVar() {
			t := e.T.Const
			return func(*Frame) (int64, error) { return termNumber(t) }, nil
		}
		slot, ok := sm.ObjSlot(e.T.Var)
		if !ok {
			return nil, fmt.Errorf("logic: unbound term %s", e.T)
		}
		return func(fr *Frame) (int64, error) {
			code := fr.Objs[slot]
			if code == 0 {
				return 0, fmt.Errorf("logic: unbound term %s", e.T)
			}
			return termNumber(dec(code))
		}, nil
	case NumBin:
		l, err := compileNum(e.L, sm, dec)
		if err != nil {
			return nil, err
		}
		r, err := compileNum(e.R, sm, dec)
		if err != nil {
			return nil, err
		}
		add := e.Op == NumAdd
		return func(fr *Frame) (int64, error) {
			lv, err := l(fr)
			if err != nil {
				return 0, err
			}
			rv, err := r(fr)
			if err != nil {
				return 0, err
			}
			if add {
				return lv + rv, nil
			}
			return lv - rv, nil
		}, nil
	default:
		return nil, fmt.Errorf("logic: cannot compile numeric expression %s", e)
	}
}
