package rdf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		term Term
		kind TermKind
		str  string
	}{
		{NewIRI("http://ex.org/CR"), IRI, "<http://ex.org/CR>"},
		{NewLiteral("hello"), Literal, `"hello"`},
		{NewTypedLiteral("1951", XSDInteger), Literal, `"1951"^^<` + XSDInteger + `>`},
		{NewLangLiteral("ciao", "it"), Literal, `"ciao"@it`},
		{NewBlank("b0"), Blank, "_:b0"},
		{Integer(1951), Literal, `"1951"^^<` + XSDInteger + `>`},
	}
	for _, tc := range tests {
		if tc.term.Kind != tc.kind {
			t.Errorf("%v: kind = %v, want %v", tc.term, tc.term.Kind, tc.kind)
		}
		if got := tc.term.String(); got != tc.str {
			t.Errorf("String = %q, want %q", got, tc.str)
		}
	}
}

func TestTermPredicatesAndZero(t *testing.T) {
	if !NewIRI("x").IsIRI() || NewIRI("x").IsLiteral() || NewIRI("x").IsBlank() {
		t.Error("IRI predicates wrong")
	}
	if !NewLiteral("x").IsLiteral() || !NewBlank("x").IsBlank() {
		t.Error("literal/blank predicates wrong")
	}
	var z Term
	if !z.IsZero() || NewIRI("x").IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" || Blank.String() != "Blank" {
		t.Error("TermKind names wrong")
	}
	if !strings.Contains(TermKind(9).String(), "9") {
		t.Error("unknown kind should include the number")
	}
}

func TestLiteralEscaping(t *testing.T) {
	lit := NewLiteral("a\"b\\c\nd\te")
	q := Quad{Subject: NewIRI("s"), Predicate: NewIRI("p"), Object: lit,
		Interval: temporal.MustNew(1, 2), Confidence: 0.5}
	parsed, err := ParseQuad(q.String())
	if err != nil {
		t.Fatalf("parse escaped literal: %v", err)
	}
	if parsed.Object != lit {
		t.Errorf("round trip got %#v, want %#v", parsed.Object, lit)
	}
}

func TestQuadValidate(t *testing.T) {
	good := NewQuad("CR", "coach", "Chelsea", temporal.MustNew(2000, 2004), 0.9)
	if err := good.Validate(); err != nil {
		t.Errorf("valid quad rejected: %v", err)
	}
	bad := []Quad{
		{},
		{Subject: NewLiteral("x"), Predicate: NewIRI("p"), Object: NewIRI("o"), Interval: temporal.MustNew(1, 2), Confidence: 1},
		{Subject: NewIRI("s"), Predicate: NewLiteral("p"), Object: NewIRI("o"), Interval: temporal.MustNew(1, 2), Confidence: 1},
		{Subject: NewIRI("s"), Predicate: NewIRI("p"), Object: NewIRI("o"), Interval: temporal.Interval{Start: 5, End: 2}, Confidence: 1},
		{Subject: NewIRI("s"), Predicate: NewIRI("p"), Object: NewIRI("o"), Interval: temporal.MustNew(1, 2), Confidence: 0},
		{Subject: NewIRI("s"), Predicate: NewIRI("p"), Object: NewIRI("o"), Interval: temporal.MustNew(1, 2), Confidence: 1.5},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad quad %d accepted", i)
		}
	}
}

func TestQuadFactKey(t *testing.T) {
	a := NewQuad("CR", "coach", "Chelsea", temporal.MustNew(2000, 2004), 0.9)
	b := a
	b.Confidence = 0.4
	if a.Fact() != b.Fact() {
		t.Error("FactKey should ignore confidence")
	}
	c := a
	c.Interval = temporal.MustNew(2000, 2005)
	if a.Fact() == c.Fact() {
		t.Error("FactKey should include the interval")
	}
	want := "(CR, coach, Chelsea, [2000,2004])"
	if got := a.Fact().String(); got != want {
		t.Errorf("FactKey.String = %q, want %q", got, want)
	}
}

func TestQuadCompact(t *testing.T) {
	q := NewQuad("CR", "coach", "Chelsea", temporal.MustNew(2000, 2004), 0.9)
	if got := q.Compact(); got != "(CR, coach, Chelsea, [2000,2004]) 0.9" {
		t.Errorf("Compact = %q", got)
	}
	// Compact renders without fmt; it must read exactly as the
	// "(%s, %s, %s, %s) %g" rendering it replaced, whatever the
	// confidence and interval.
	rng := rand.New(rand.NewSource(1))
	confs := []float64{1, 0.5, 1e-7, 0.1 + 0.2, 1.0 / 3, 0.000123456789, 1e21, 123456789}
	for i := 0; i < 200; i++ {
		confs = append(confs, rng.Float64(), rng.ExpFloat64()*1e-5)
	}
	for i, c := range confs {
		iv := temporal.MustNew(int64(i)-100, int64(i)*int64(i))
		if i == 0 {
			iv = temporal.MustNew(math.MinInt64+1, math.MaxInt64)
		}
		q := NewQuad("s", "p", "o", iv, c)
		want := fmt.Sprintf("(%s, %s, %s, %s) %g", "s", "p", "o", fmt.Sprintf("[%d,%d]", iv.Start, iv.End), c)
		if got := q.Compact(); got != want {
			t.Fatalf("Compact = %q, want %q", got, want)
		}
	}
}

func TestParseQuadVariants(t *testing.T) {
	iv := temporal.MustNew(2000, 2004)
	tests := []struct {
		in   string
		want Quad
	}{
		{"<CR> <coach> <Chelsea> [2000,2004] 0.9 .", NewQuad("CR", "coach", "Chelsea", iv, 0.9)},
		{"CR coach Chelsea [2000,2004] 0.9", NewQuad("CR", "coach", "Chelsea", iv, 0.9)},
		{"CR coach Chelsea [2000,2004]", NewQuad("CR", "coach", "Chelsea", iv, 1.0)},
		{"CR coach Chelsea [2000,2004] .", NewQuad("CR", "coach", "Chelsea", iv, 1.0)},
		{"CR birthDate 1951 [1951,2017] 1.0", Quad{
			Subject: NewIRI("CR"), Predicate: NewIRI("birthDate"), Object: Integer(1951),
			Interval: temporal.MustNew(1951, 2017), Confidence: 1.0}},
		{`<s> <p> "lit"@en [1,2] 0.25 .`, Quad{
			Subject: NewIRI("s"), Predicate: NewIRI("p"), Object: NewLangLiteral("lit", "en"),
			Interval: temporal.MustNew(1, 2), Confidence: 0.25}},
		{"_:b0 <p> _:b1 [1,1] 0.5 .", Quad{
			Subject: NewBlank("b0"), Predicate: NewIRI("p"), Object: NewBlank("b1"),
			Interval: temporal.MustNew(1, 1), Confidence: 0.5}},
	}
	for _, tc := range tests {
		got, err := ParseQuad(tc.in)
		if err != nil {
			t.Errorf("ParseQuad(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseQuad(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestParseQuadErrors(t *testing.T) {
	bad := []string{
		"",
		"<s> <p>",
		"<s> <p> <o>",
		"<s> <p> <o> [5,3] 0.9 .",
		"<s> <p> <o> [1,2] 1.5 .",
		"<s> <p> <o> [1,2] 0.9 junk",
		"<s <p> <o> [1,2] 0.9 .",
		`<s> <p> "unterminated [1,2] .`,
		"<s> <p> <o> 1,2 0.9 .",
		"<s> <p> <o> [1,2 0.9 .",
		"_: <p> <o> [1,2] .",
	}
	for _, in := range bad {
		if _, err := ParseQuad(in); err == nil {
			t.Errorf("ParseQuad(%q) should fail", in)
		}
	}
}

func TestParseGraph(t *testing.T) {
	doc := `# Claudio Raineri's career (Figure 1)
CR coach Chelsea [2000,2004] 0.9 .
CR coach Leicester [2015,2017] 0.7 .

CR playsFor Palermo [1984,1986] 0.5 .
CR birthDate 1951 [1951,2017] 1.0 .
CR coach Napoli [2001,2003] 0.6 .
`
	g, err := ParseGraphString(doc)
	if err != nil {
		t.Fatalf("ParseGraph: %v", err)
	}
	if len(g) != 5 {
		t.Fatalf("got %d quads, want 5", len(g))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	preds := g.Predicates()
	want := []string{"coach", "playsFor", "birthDate"}
	if len(preds) != len(want) {
		t.Fatalf("Predicates = %v", preds)
	}
	for i := range want {
		if preds[i] != want[i] {
			t.Errorf("Predicates[%d] = %q, want %q", i, preds[i], want[i])
		}
	}
}

func TestParseGraphErrorHasLine(t *testing.T) {
	_, err := ParseGraphString("CR coach Chelsea [2000,2004] 0.9 .\nbroken [ .\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func TestWriteGraphRoundTrip(t *testing.T) {
	g := Graph{
		NewQuad("CR", "coach", "Chelsea", temporal.MustNew(2000, 2004), 0.9),
		{Subject: NewIRI("s"), Predicate: NewIRI("p"), Object: NewLangLiteral("x y", "en"),
			Interval: temporal.MustNew(-3, 8), Confidence: 1},
		{Subject: NewBlank("n1"), Predicate: NewIRI("p"), Object: Integer(7),
			Interval: temporal.MustNew(0, 0), Confidence: 0.125},
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	back, err := ParseGraph(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(back) != len(g) {
		t.Fatalf("got %d quads, want %d", len(back), len(g))
	}
	for i := range g {
		if back[i] != g[i] {
			t.Errorf("quad %d: got %#v, want %#v", i, back[i], g[i])
		}
	}
}

// TestQuadRoundTripProperty: serialise-then-parse is identity for random
// well-formed quads.
func TestQuadRoundTripProperty(t *testing.T) {
	f := func(s, p, o string, a, b int16, confNum uint8) bool {
		clean := func(x string) string {
			x = strings.Map(func(r rune) rune {
				if r < 0x20 || r == '>' || r == '<' || r == ' ' {
					return -1
				}
				return r
			}, x)
			if x == "" {
				return "n"
			}
			return x
		}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		conf := (float64(confNum%100) + 1) / 100
		q := Quad{
			Subject:    NewIRI(clean(s)),
			Predicate:  NewIRI(clean(p)),
			Object:     NewLiteral(o),
			Interval:   temporal.Interval{Start: lo, End: hi},
			Confidence: conf,
		}
		back, err := ParseQuad(q.String())
		return err == nil && back == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
