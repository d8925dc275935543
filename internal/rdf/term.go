// Package rdf implements the data model of uncertain temporal knowledge
// graphs (utkgs): RDF terms, temporal quads — triples annotated with a
// validity interval and a confidence value — and a line-oriented text
// format ("TQuads") for reading and writing them.
//
// A utkg is a set of weighted temporal facts such as
//
//	<CR> <coach> <Chelsea> [2000,2004] 0.9 .
//
// following Figure 1 of the TeCoRe paper (VLDB 2017).
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the kinds of RDF terms.
type TermKind uint8

const (
	// IRI is an internationalised resource identifier (written <...> or
	// as a bare prefixed/plain name in the compact syntax).
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is a blank node (written _:label).
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term. Terms are small value types and are compared with
// ==; two terms are identical iff all fields match.
type Term struct {
	Kind TermKind
	// Value holds the IRI string, the literal lexical form, or the blank
	// node label, depending on Kind.
	Value string
	// Datatype is the datatype IRI for typed literals ("" otherwise).
	Datatype string
	// Lang is the language tag for language-tagged literals ("" otherwise).
	Lang string
}

// Compare orders terms by kind, value, datatype and language tag,
// giving a deterministic total order over distinct terms.
func (t Term) Compare(o Term) int {
	switch {
	case t.Kind != o.Kind:
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	case t.Value != o.Value:
		if t.Value < o.Value {
			return -1
		}
		return 1
	case t.Datatype != o.Datatype:
		if t.Datatype < o.Datatype {
			return -1
		}
		return 1
	case t.Lang != o.Lang:
		if t.Lang < o.Lang {
			return -1
		}
		return 1
	}
	return 0
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(value string) Term { return Term{Kind: Literal, Value: value} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(value, datatype string) Term {
	return Term{Kind: Literal, Value: value, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(value, lang string) Term {
	return Term{Kind: Literal, Value: value, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// Integer returns a literal of type xsd:integer.
func Integer(v int64) Term {
	return NewTypedLiteral(fmt.Sprintf("%d", v), XSDInteger)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsZero reports whether the term is the zero Term (no value); Validate
// rejects quads with a zero position.
func (t Term) IsZero() bool { return t == Term{} }

// String renders the term in TQuads (N-Triples-like) syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return fmt.Sprintf("?!term(%d:%s)", t.Kind, t.Value)
	}
}

// Compact renders the term in the paper's informal notation: IRIs print
// without angle brackets (CR, coach, Chelsea) and integer literals print
// bare (1951).
func (t Term) Compact() string {
	if t.Kind == IRI {
		return t.Value
	}
	if t.Kind == Literal && t.Datatype == XSDInteger {
		return t.Value
	}
	return t.String()
}

func escapeLiteral(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	return r.Replace(s)
}

func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(s[i])
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// XSDInteger is the datatype IRI of integer literals.
const XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
