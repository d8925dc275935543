// Package logic defines the weighted first-order representation that
// TeCoRe translates uncertain temporal knowledge graphs, inference rules
// and constraints into. A temporal fact becomes a ground quad atom
// quad(s, p, o, t); rules and constraints are weighted formulas
//
//	Body ∧ [Condition] → Head    (w ∈ ℝ ∪ {∞})
//
// where conditions are Allen interval relations, (in)equalities and
// arithmetic comparisons evaluated during grounding (the "numerical
// constraints" extension of MLNs from Chekol et al., ECAI 2016).
package logic

import (
	"fmt"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// Term is an object-position term of a quad atom: either a variable
// (Var != "") or a constant RDF term.
type Term struct {
	Var   string
	Const rdf.Term
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(t rdf.Term) Term { return Term{Const: t} }

// CIRI returns a constant IRI term, the common case for predicates.
func CIRI(iri string) Term { return Term{Const: rdf.NewIRI(iri)} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term: variables print bare, constants compactly.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	if t.Const.IsIRI() && !bareNameSafe(t.Const.Value) {
		// The compact form would lex as a variable (x, t2) or not as a
		// single identifier at all; the angle form is unambiguous.
		return "<" + t.Const.Value + ">"
	}
	return t.Const.Compact()
}

// bareNameSafe reports whether an IRI can print bare in rule syntax and
// re-parse as the same constant: it must be a plain identifier (letters,
// digits, underscores — mirroring the rulelang lexer) and must not match
// the variable lexical rule (a lowercase letter plus digits/primes).
func bareNameSafe(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
		case r >= '0' && r <= '9' || r == '\'':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Variable shape: one lowercase letter, digits, then primes.
	if s[0] >= 'a' && s[0] <= 'z' {
		i := 1
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		}
		for ; i < len(s) && s[i] == '\''; i++ {
		}
		if i == len(s) {
			return false
		}
	}
	return true
}

// TimeTermKind discriminates time-position terms.
type TimeTermKind uint8

const (
	// TimeVar is an interval variable (t, t').
	TimeVar TimeTermKind = iota
	// TimeConst is an interval literal ([2000,2004]).
	TimeConst
	// TimeIntersect is the intersection expression t ∩ t' used in rule
	// heads (f2 of the paper derives livesIn over t ∩ t').
	TimeIntersect
	// TimeSpan is the spanning expression t ⊔ t' (smallest interval
	// covering both), offered as a companion combinator.
	TimeSpan
)

// TimeTerm is the temporal argument of a quad atom: a variable, an
// interval constant, or a binary interval expression over two sub-terms.
type TimeTerm struct {
	Kind  TimeTermKind
	Var   string
	Const temporal.Interval
	L, R  *TimeTerm
}

// TV returns a time variable.
func TV(name string) TimeTerm { return TimeTerm{Kind: TimeVar, Var: name} }

// TC returns a time constant.
func TC(iv temporal.Interval) TimeTerm { return TimeTerm{Kind: TimeConst, Const: iv} }

// TIntersect returns the intersection expression l ∩ r.
func TIntersect(l, r TimeTerm) TimeTerm {
	return TimeTerm{Kind: TimeIntersect, L: &l, R: &r}
}

// TSpan returns the span expression l ⊔ r.
func TSpan(l, r TimeTerm) TimeTerm {
	return TimeTerm{Kind: TimeSpan, L: &l, R: &r}
}

// IsVar reports whether the time term is a bare variable.
func (t TimeTerm) IsVar() bool { return t.Kind == TimeVar }

// String renders the time term.
func (t TimeTerm) String() string {
	switch t.Kind {
	case TimeVar:
		return t.Var
	case TimeConst:
		return t.Const.String()
	case TimeIntersect:
		return "intersect(" + t.L.String() + ", " + t.R.String() + ")"
	case TimeSpan:
		return "span(" + t.L.String() + ", " + t.R.String() + ")"
	default:
		return "?!time"
	}
}

// Vars appends the variables of the time term to dst.
func (t TimeTerm) Vars(dst []string) []string {
	switch t.Kind {
	case TimeVar:
		return append(dst, t.Var)
	case TimeIntersect, TimeSpan:
		return t.R.Vars(t.L.Vars(dst))
	default:
		return dst
	}
}

// Binding assigns constants to object variables and intervals to time
// variables. It is the interpretive evaluator's state: the grounder runs
// rules through compiled frames (see frame.go), and Binding together
// with Condition.Eval, NumExpr.EvalNum and QuadAtom.Resolve serves only
// the naive nested-loop grounding oracle the grounder is tested against.
type Binding struct {
	Objs  map[string]rdf.Term
	Times map[string]temporal.Interval
}

// NewBinding returns an empty binding.
func NewBinding() *Binding {
	return &Binding{Objs: make(map[string]rdf.Term), Times: make(map[string]temporal.Interval)}
}

// Clone deep-copies the binding.
func (b *Binding) Clone() *Binding {
	nb := NewBinding()
	for k, v := range b.Objs {
		nb.Objs[k] = v
	}
	for k, v := range b.Times {
		nb.Times[k] = v
	}
	return nb
}

// ResolveTerm returns the constant a term denotes under the binding; ok
// is false for unbound variables.
func (b *Binding) ResolveTerm(t Term) (rdf.Term, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := b.Objs[t.Var]
	return v, ok
}

// ResolveTime evaluates a time term under the binding. ok is false when a
// variable is unbound or an intersection expression is empty.
func (b *Binding) ResolveTime(t TimeTerm) (temporal.Interval, bool) {
	switch t.Kind {
	case TimeVar:
		iv, ok := b.Times[t.Var]
		return iv, ok
	case TimeConst:
		return t.Const, true
	case TimeIntersect:
		l, ok := b.ResolveTime(*t.L)
		if !ok {
			return temporal.Interval{}, false
		}
		r, ok := b.ResolveTime(*t.R)
		if !ok {
			return temporal.Interval{}, false
		}
		return l.Intersect(r)
	case TimeSpan:
		l, ok := b.ResolveTime(*t.L)
		if !ok {
			return temporal.Interval{}, false
		}
		r, ok := b.ResolveTime(*t.R)
		if !ok {
			return temporal.Interval{}, false
		}
		return l.Span(r), true
	default:
		return temporal.Interval{}, false
	}
}

// QuadAtom is an atom over the quad predicate: quad(S, P, O, T).
type QuadAtom struct {
	S, P, O Term
	T       TimeTerm
}

// String renders the atom in the paper's syntax.
func (a QuadAtom) String() string {
	return fmt.Sprintf("quad(%s, %s, %s, %s)", a.S, a.P, a.O, a.T)
}

// Vars appends all variables of the atom to dst.
func (a QuadAtom) Vars(dst []string) []string {
	for _, t := range []Term{a.S, a.P, a.O} {
		if t.IsVar() {
			dst = append(dst, t.Var)
		}
	}
	return a.T.Vars(dst)
}

// Resolve instantiates the atom under a binding into a ground fact key
// — the naive grounding oracle's head resolution (see Binding). ok is
// false when any variable is unbound or the time expression is empty.
func (a QuadAtom) Resolve(b *Binding) (rdf.FactKey, bool) {
	s, ok := b.ResolveTerm(a.S)
	if !ok {
		return rdf.FactKey{}, false
	}
	p, ok := b.ResolveTerm(a.P)
	if !ok {
		return rdf.FactKey{}, false
	}
	o, ok := b.ResolveTerm(a.O)
	if !ok {
		return rdf.FactKey{}, false
	}
	iv, ok := b.ResolveTime(a.T)
	if !ok {
		return rdf.FactKey{}, false
	}
	return rdf.FactKey{S: s, P: p, O: o, Interval: iv}, true
}
