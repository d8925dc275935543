package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/temporal"
)

// This file implements the TQuads text format, an N-Quads-style
// line-oriented serialisation of uncertain temporal facts:
//
//	<subject> <predicate> <object> [start,end] confidence .
//
// Terms may be written as <IRI>, _:blank, "literal"(^^<dt> | @lang), or —
// in the compact variant the paper uses — as bare names (CR, coach),
// which parse as IRIs. The confidence is optional and defaults to 1.0;
// the trailing dot is optional. '#' starts a comment.

// ParseGraph reads a whole TQuads document.
func ParseGraph(r io.Reader) (Graph, error) {
	return parseGraph(r, 64*1024, 0)
}

// ParseGraphString is ParseGraph over a string. Its line buffer starts
// no larger than the string, so parsing the one-line documents of a
// streamed update does not allocate the 64 KiB a file read starts with,
// and the graph starts with room for one quad per line.
func ParseGraphString(s string) (Graph, error) {
	return parseGraph(strings.NewReader(s), min(len(s)+1, 64*1024), strings.Count(s, "\n")+1)
}

// parseGraph scans r with a line buffer of initial capacity size, grown
// as needed up to 16 MiB per line, into a graph allocated with room for
// lines quads at the first quad (0 leaves append to size it).
func parseGraph(r io.Reader, size, lines int) (Graph, error) {
	var g Graph
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, size), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := ParseQuad(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if g == nil && lines > 0 {
			g = make(Graph, 0, lines)
		}
		g = append(g, q)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdf: reading tquads: %w", err)
	}
	return g, nil
}

// WriteGraph serialises the graph in TQuads syntax, one quad per line.
func WriteGraph(w io.Writer, g Graph) error {
	bw := bufio.NewWriter(w)
	for _, q := range g {
		if _, err := bw.WriteString(q.String()); err != nil {
			return fmt.Errorf("rdf: writing tquads: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("rdf: writing tquads: %w", err)
		}
	}
	return bw.Flush()
}

// ParseQuad parses a single TQuads line.
func ParseQuad(line string) (Quad, error) {
	p := &tqParser{in: line}
	q, err := p.quad()
	if err != nil {
		return Quad{}, fmt.Errorf("rdf: %w in %q", err, line)
	}
	return q, nil
}

type tqParser struct {
	in  string
	pos int
}

func (p *tqParser) quad() (Quad, error) {
	var q Quad
	var err error
	if q.Subject, err = p.term(); err != nil {
		return q, fmt.Errorf("subject: %w", err)
	}
	if q.Predicate, err = p.term(); err != nil {
		return q, fmt.Errorf("predicate: %w", err)
	}
	if q.Object, err = p.term(); err != nil {
		return q, fmt.Errorf("object: %w", err)
	}
	if q.Interval, err = p.interval(); err != nil {
		return q, fmt.Errorf("interval: %w", err)
	}
	q.Confidence = 1.0
	p.skipSpace()
	if !p.eof() && p.peek() != '.' {
		conf, err := p.number()
		if err != nil {
			return q, fmt.Errorf("confidence: %w", err)
		}
		q.Confidence = conf
	}
	p.skipSpace()
	if !p.eof() && p.peek() == '.' {
		p.pos++
	}
	p.skipSpace()
	if !p.eof() && p.peek() == '#' {
		p.pos = len(p.in) // trailing comment
	}
	if !p.eof() {
		return q, fmt.Errorf("trailing garbage at column %d", p.pos+1)
	}
	return q, q.Validate()
}

func (p *tqParser) term() (Term, error) {
	p.skipSpace()
	if p.eof() {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch c := p.peek(); {
	case c == '<':
		return p.iri()
	case c == '"':
		return p.literal()
	case c == '_' && p.pos+1 < len(p.in) && p.in[p.pos+1] == ':':
		p.pos += 2
		start := p.pos
		for !p.eof() && isNameByte(p.peek()) {
			p.pos++
		}
		if p.pos == start {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		return NewBlank(p.in[start:p.pos]), nil
	case c == '[':
		return Term{}, fmt.Errorf("found interval where a term was expected")
	default:
		// Compact bare name: read until whitespace; parse as IRI. Numbers
		// become xsd:integer literals, matching the paper's birthDate
		// example (CR, birthDate, 1951, [1951,2017]).
		start := p.pos
		for !p.eof() && !isSpaceByte(p.peek()) {
			p.pos++
		}
		tok := p.in[start:p.pos]
		if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return Integer(v), nil
		}
		if strings.ContainsAny(tok, `<>"`) {
			// Angle brackets and quotes delimit the explicit term forms;
			// a bare name containing them cannot be re-serialised.
			return Term{}, fmt.Errorf("bare name %q contains reserved characters", tok)
		}
		return NewIRI(tok), nil
	}
}

func (p *tqParser) iri() (Term, error) {
	p.pos++ // consume '<'
	start := p.pos
	for !p.eof() && p.peek() != '>' {
		p.pos++
	}
	if p.eof() {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.in[start:p.pos]
	p.pos++ // consume '>'
	if iri == "" {
		return Term{}, fmt.Errorf("empty IRI")
	}
	return NewIRI(iri), nil
}

func (p *tqParser) literal() (Term, error) {
	p.pos++ // consume '"'
	var b strings.Builder
	for !p.eof() {
		c := p.in[p.pos]
		if c == '\\' && p.pos+1 < len(p.in) {
			b.WriteByte(c)
			b.WriteByte(p.in[p.pos+1])
			p.pos += 2
			continue
		}
		if c == '"' {
			break
		}
		b.WriteByte(c)
		p.pos++
	}
	if p.eof() {
		return Term{}, fmt.Errorf("unterminated literal")
	}
	p.pos++ // consume closing '"'
	t := NewLiteral(unescapeLiteral(b.String()))
	if !p.eof() && p.peek() == '@' {
		p.pos++
		start := p.pos
		for !p.eof() && (isNameByte(p.peek()) || p.peek() == '-') {
			p.pos++
		}
		if p.pos == start {
			return Term{}, fmt.Errorf("empty language tag")
		}
		t.Lang = p.in[start:p.pos]
	} else if strings.HasPrefix(p.in[p.pos:], "^^") {
		p.pos += 2
		if p.eof() || p.peek() != '<' {
			return Term{}, fmt.Errorf("datatype must be an IRI")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		t.Datatype = dt.Value
	}
	return t, nil
}

func (p *tqParser) interval() (temporal.Interval, error) {
	p.skipSpace()
	if p.eof() || p.peek() != '[' {
		return temporal.Interval{}, fmt.Errorf("expected '[' at column %d", p.pos+1)
	}
	start := p.pos
	for !p.eof() && p.peek() != ']' {
		p.pos++
	}
	if p.eof() {
		return temporal.Interval{}, fmt.Errorf("unterminated interval")
	}
	p.pos++ // consume ']'
	return temporal.Parse(p.in[start:p.pos])
}

func (p *tqParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() && !isSpaceByte(p.peek()) && p.peek() != '.' {
		p.pos++
	}
	// A float confidence contains a '.'; the loop above stops at '.', so
	// extend over "digit '.' digit" sequences.
	for p.pos < len(p.in) && p.in[p.pos] == '.' && p.pos+1 < len(p.in) && p.in[p.pos+1] >= '0' && p.in[p.pos+1] <= '9' {
		p.pos++
		for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
			p.pos++
		}
	}
	tok := p.in[start:p.pos]
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", tok)
	}
	return v, nil
}

func (p *tqParser) skipSpace() {
	for !p.eof() && isSpaceByte(p.in[p.pos]) {
		p.pos++
	}
}

func (p *tqParser) peek() byte { return p.in[p.pos] }
func (p *tqParser) eof() bool  { return p.pos >= len(p.in) }

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' }

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
