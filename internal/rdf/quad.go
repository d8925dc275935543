package rdf

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/temporal"
)

// Quad is an uncertain temporal fact: an RDF triple annotated with a
// validity interval over the discrete time domain and a confidence value
// in (0, 1]. It corresponds to one line of Figure 1 of the paper, e.g.
//
//	(CR, coach, Chelsea, [2000,2004]) 0.9
type Quad struct {
	Subject   Term
	Predicate Term
	Object    Term
	Interval  temporal.Interval
	// Confidence states how likely the fact is to hold; 1.0 marks a
	// certain fact. Values outside (0, 1] are rejected by Validate.
	Confidence float64
}

// NewQuad assembles a quad from compact IRI names, the given interval and
// confidence. It is a convenience for examples and tests.
func NewQuad(s, p, o string, iv temporal.Interval, conf float64) Quad {
	return Quad{
		Subject:    NewIRI(s),
		Predicate:  NewIRI(p),
		Object:     NewIRI(o),
		Interval:   iv,
		Confidence: conf,
	}
}

// Validate reports the first structural problem with the quad: invalid
// interval, out-of-range confidence, literal subject/predicate, or zero
// terms.
func (q Quad) Validate() error {
	switch {
	case q.Subject.IsZero() || q.Predicate.IsZero() || q.Object.IsZero():
		return fmt.Errorf("rdf: quad %v has a zero term", q)
	case q.Subject.IsLiteral():
		return fmt.Errorf("rdf: quad %v has a literal subject", q)
	case !q.Predicate.IsIRI():
		return fmt.Errorf("rdf: quad %v has a non-IRI predicate", q)
	case !q.Interval.Valid():
		return fmt.Errorf("rdf: quad %v has an invalid interval", q)
	case !(q.Confidence > 0 && q.Confidence <= 1):
		return fmt.Errorf("rdf: quad %v has confidence %g outside (0,1]", q, q.Confidence)
	}
	return nil
}

// Fact returns the atemporal identity of the quad — subject, predicate,
// object and interval — ignoring confidence. Two quads with equal Fact
// keys assert the same temporal statement.
func (q Quad) Fact() FactKey {
	return FactKey{S: q.Subject, P: q.Predicate, O: q.Object, Interval: q.Interval}
}

// FactKey identifies a temporal statement irrespective of confidence.
// It is a comparable value usable as a map key.
type FactKey struct {
	S, P, O  Term
	Interval temporal.Interval
}

// String renders the key in the paper's compact tuple notation.
func (k FactKey) String() string {
	return "(" + k.S.Compact() + ", " + k.P.Compact() + ", " + k.O.Compact() + ", " + k.Interval.String() + ")"
}

// Compare orders fact keys lexicographically by subject, predicate,
// object and interval. It is the canonical total order the incremental
// solve pipeline uses to number variables identically regardless of the
// order atoms were interned in.
func (k FactKey) Compare(o FactKey) int {
	if c := k.S.Compare(o.S); c != 0 {
		return c
	}
	if c := k.P.Compare(o.P); c != 0 {
		return c
	}
	if c := k.O.Compare(o.O); c != 0 {
		return c
	}
	switch {
	case k.Interval.Start != o.Interval.Start:
		if k.Interval.Start < o.Interval.Start {
			return -1
		}
		return 1
	case k.Interval.End != o.Interval.End:
		if k.Interval.End < o.Interval.End {
			return -1
		}
		return 1
	}
	return 0
}

// String renders the quad in TQuads syntax:
//
//	<s> <p> <o> [start,end] conf .
func (q Quad) String() string {
	var b strings.Builder
	b.WriteString(q.Subject.String())
	b.WriteByte(' ')
	b.WriteString(q.Predicate.String())
	b.WriteByte(' ')
	b.WriteString(q.Object.String())
	b.WriteByte(' ')
	b.WriteString(q.Interval.String())
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(q.Confidence, 'g', -1, 64))
	b.WriteString(" .")
	return b.String()
}

// Compact renders the quad in the paper's informal notation:
//
//	(CR, coach, Chelsea, [2000,2004]) 0.9
func (q Quad) Compact() string {
	return "(" + q.Subject.Compact() + ", " + q.Predicate.Compact() + ", " + q.Object.Compact() + ", " +
		q.Interval.String() + ") " + strconv.FormatFloat(q.Confidence, 'g', -1, 64)
}

// Graph is a set of quads — an uncertain temporal knowledge graph. The
// slice order is insertion order; deduplication and indexing are the
// store's job.
type Graph []Quad

// Validate validates every quad, returning the first error with its
// position.
func (g Graph) Validate() error {
	for i, q := range g {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("quad %d: %w", i, err)
		}
	}
	return nil
}

// Predicates returns the distinct predicate IRIs in the graph in first-
// appearance order. The Web UI uses this for constraint auto-completion.
func (g Graph) Predicates() []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range g {
		if p := q.Predicate.Value; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
