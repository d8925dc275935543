package logic

import (
	"fmt"
	"strconv"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// CmpOp is a comparison operator for conditions.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpNames) {
		return cmpNames[op]
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(op))
}

// Negate returns the complementary operator (= ↔ !=, < ↔ >=, ...).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return op
}

func (op CmpOp) applyInt(l, r int64) bool {
	switch op {
	case EQ:
		return l == r
	case NE:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	}
	return false
}

// Condition is a built-in predicate over bound variables, evaluated
// during grounding: Allen relations between intervals, (in)equality
// between object terms, and arithmetic comparisons.
type Condition interface {
	fmt.Stringer
	// Eval evaluates the condition under a binding — the naive grounding
	// oracle's evaluator (see Binding); grounding itself evaluates the
	// compiled form. The error reports unbound variables or non-numeric
	// operands.
	Eval(b *Binding) (bool, error)
	// CondVars appends the condition's variables to dst.
	CondVars(dst []string) []string
}

// AllenCond asserts that the Allen relation between two time terms falls
// within Rels. Single relations (before, overlaps, ...) use a singleton
// set; the paper's "disjoint" predicate uses temporal.DisjointSet and the
// loose "overlap"/"intersects" uses temporal.IntersectsSet.
type AllenCond struct {
	// Name is the surface name of the predicate as written by the user
	// (e.g. "disjoint"); it is retained for printing.
	Name string
	Rels temporal.RelationSet
	L, R TimeTerm
}

// Eval implements Condition.
func (c AllenCond) Eval(b *Binding) (bool, error) {
	l, ok := b.ResolveTime(c.L)
	if !ok {
		return false, fmt.Errorf("logic: unbound time term %s in %s", c.L, c)
	}
	r, ok := b.ResolveTime(c.R)
	if !ok {
		return false, fmt.Errorf("logic: unbound time term %s in %s", c.R, c)
	}
	return c.Rels.Has(temporal.RelationBetween(l, r)), nil
}

// CondVars implements Condition.
func (c AllenCond) CondVars(dst []string) []string { return c.R.Vars(c.L.Vars(dst)) }

func (c AllenCond) String() string {
	name := c.Name
	if name == "" {
		rels := c.Rels.Relations()
		if len(rels) == 1 {
			name = rels[0].String()
		} else {
			name = c.Rels.String()
		}
	}
	return fmt.Sprintf("%s(%s, %s)", name, c.L, c.R)
}

// CompareCond asserts (in)equality between two object terms, as in
// constraint c2's "y != z".
type CompareCond struct {
	Op   CmpOp // EQ or NE
	L, R Term
}

// Eval implements Condition.
func (c CompareCond) Eval(b *Binding) (bool, error) {
	l, ok := b.ResolveTerm(c.L)
	if !ok {
		return false, fmt.Errorf("logic: unbound term %s in %s", c.L, c)
	}
	r, ok := b.ResolveTerm(c.R)
	if !ok {
		return false, fmt.Errorf("logic: unbound term %s in %s", c.R, c)
	}
	switch c.Op {
	case EQ:
		return l == r, nil
	case NE:
		return l != r, nil
	default:
		// Ordered comparison of terms: compare numerically when both
		// parse as integers, lexically otherwise.
		ln, lerr := termNumber(l)
		rn, rerr := termNumber(r)
		if lerr == nil && rerr == nil {
			return c.Op.applyInt(ln, rn), nil
		}
		return c.Op.applyInt(int64(compareStrings(l.Value, r.Value)), 0), nil
	}
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CondVars implements Condition.
func (c CompareCond) CondVars(dst []string) []string {
	if c.L.IsVar() {
		dst = append(dst, c.L.Var)
	}
	if c.R.IsVar() {
		dst = append(dst, c.R.Var)
	}
	return dst
}

func (c CompareCond) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// NumExpr is an integer-valued expression over the binding: interval
// endpoints, durations, numeric object values, constants, and sums and
// differences thereof. EvalNum is the naive grounding oracle's evaluator
// (see Binding); grounding itself evaluates the compiled form.
type NumExpr interface {
	fmt.Stringer
	EvalNum(b *Binding) (int64, error)
	NumVars(dst []string) []string
}

// NumConst is an integer literal.
type NumConst int64

// EvalNum implements NumExpr.
func (n NumConst) EvalNum(*Binding) (int64, error) { return int64(n), nil }

// NumVars implements NumExpr.
func (n NumConst) NumVars(dst []string) []string { return dst }

func (n NumConst) String() string { return strconv.FormatInt(int64(n), 10) }

// TimeAccessor selects a numeric feature of a time term.
type TimeAccessor uint8

// Time accessors: start, end and duration of an interval. A bare time
// variable in numeric context denotes its start (the convention used
// when writing the paper's f3 as "start(t) - start(t') < 20").
const (
	AccStart TimeAccessor = iota
	AccEnd
	AccDuration
)

// TimeNum extracts a numeric feature from a time term.
type TimeNum struct {
	Acc TimeAccessor
	T   TimeTerm
}

// EvalNum implements NumExpr.
func (tn TimeNum) EvalNum(b *Binding) (int64, error) {
	iv, ok := b.ResolveTime(tn.T)
	if !ok {
		return 0, fmt.Errorf("logic: unbound time term %s", tn.T)
	}
	switch tn.Acc {
	case AccStart:
		return iv.Start, nil
	case AccEnd:
		return iv.End, nil
	case AccDuration:
		return iv.Duration(), nil
	default:
		return 0, fmt.Errorf("logic: unknown time accessor %d", tn.Acc)
	}
}

// NumVars implements NumExpr.
func (tn TimeNum) NumVars(dst []string) []string { return tn.T.Vars(dst) }

func (tn TimeNum) String() string {
	switch tn.Acc {
	case AccStart:
		return "start(" + tn.T.String() + ")"
	case AccEnd:
		return "end(" + tn.T.String() + ")"
	default:
		return "duration(" + tn.T.String() + ")"
	}
}

// ObjNum interprets an object term as an integer (e.g. a birthDate year
// literal).
type ObjNum struct{ T Term }

// EvalNum implements NumExpr.
func (on ObjNum) EvalNum(b *Binding) (int64, error) {
	t, ok := b.ResolveTerm(on.T)
	if !ok {
		return 0, fmt.Errorf("logic: unbound term %s", on.T)
	}
	return termNumber(t)
}

func termNumber(t rdf.Term) (int64, error) {
	v, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("logic: term %s is not numeric", t)
	}
	return v, nil
}

// NumVars implements NumExpr.
func (on ObjNum) NumVars(dst []string) []string {
	if on.T.IsVar() {
		dst = append(dst, on.T.Var)
	}
	return dst
}

func (on ObjNum) String() string { return on.T.String() }

// NumBinOp is an arithmetic operator.
type NumBinOp uint8

// Arithmetic operators.
const (
	NumAdd NumBinOp = iota
	NumSub
)

// NumBin is a sum or difference of two numeric expressions.
type NumBin struct {
	Op   NumBinOp
	L, R NumExpr
}

// EvalNum implements NumExpr.
func (nb NumBin) EvalNum(b *Binding) (int64, error) {
	l, err := nb.L.EvalNum(b)
	if err != nil {
		return 0, err
	}
	r, err := nb.R.EvalNum(b)
	if err != nil {
		return 0, err
	}
	if nb.Op == NumAdd {
		return l + r, nil
	}
	return l - r, nil
}

// NumVars implements NumExpr.
func (nb NumBin) NumVars(dst []string) []string { return nb.R.NumVars(nb.L.NumVars(dst)) }

func (nb NumBin) String() string {
	op := " + "
	if nb.Op == NumSub {
		op = " - "
	}
	return nb.L.String() + op + nb.R.String()
}

// ArithCond compares two numeric expressions, as in the paper's
// "t' - t < 20" (age at career start below 20).
type ArithCond struct {
	Op   CmpOp
	L, R NumExpr
}

// Eval implements Condition.
func (c ArithCond) Eval(b *Binding) (bool, error) {
	l, err := c.L.EvalNum(b)
	if err != nil {
		return false, err
	}
	r, err := c.R.EvalNum(b)
	if err != nil {
		return false, err
	}
	return c.Op.applyInt(l, r), nil
}

// CondVars implements Condition.
func (c ArithCond) CondVars(dst []string) []string { return c.R.NumVars(c.L.NumVars(dst)) }

func (c ArithCond) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}
