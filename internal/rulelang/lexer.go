// Package rulelang implements the Datalog-based surface language TeCoRe
// offers for temporal inference rules and constraints. The syntax follows
// the paper's figures:
//
//	f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
//	c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z
//	      -> disjoint(t, t') w = inf
//
// Conjunction is written ^, & or ∧; implication -> or →; the weight
// clause "w = <number>" is optional and defaults to a hard rule
// (w = inf / ∞). Atoms may use the sugar p(x, y, t) for
// quad(x, p, y, t). Conditions are Allen relations over time terms
// (before, meets, ..., plus disjoint and the loose overlap/intersects),
// infix (in)equalities over object terms (y != z), and arithmetic
// comparisons over start(t), end(t), duration(t) and numeric object
// variables. Variables are single lowercase letters with optional digits
// and primes (x, y2, t”); ?name is accepted for longer variable names.
// '#' and '//' start comments.
package rulelang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar      // ?name explicit variable
	tokNumber   // integer or float
	tokString   // "..."
	tokIRI      // <...>
	tokInterval // [a,b]
	tokLParen
	tokRParen
	tokComma
	tokAnd   // ^ & ∧
	tokArrow // -> →
	tokCmp   // = != < <= > >=
	tokPlus
	tokMinus
	tokColon
	tokNewline
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokIRI:
		return "IRI"
	case tokInterval:
		return "interval"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokAnd:
		return "'^'"
	case tokArrow:
		return "'->'"
	case tokCmp:
		return "comparison"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokColon:
		return "':'"
	case tokNewline:
		return "end of rule"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("rulelang: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekRune() (rune, int) {
	if lx.pos >= len(lx.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

func (lx *lexer) advance(n int) {
	for i := 0; i < n; {
		r, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
		lx.pos += w
		i += w
		if r == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
	}
}

// next returns the next token. Newlines are significant (they terminate
// rules) and are collapsed into a single tokNewline.
func (lx *lexer) next() (token, error) {
	for {
		r, w := lx.peekRune()
		if r == 0 {
			return token{kind: tokEOF, line: lx.line, col: lx.col}, nil
		}
		// Comments run to end of line.
		if r == '#' || strings.HasPrefix(lx.src[lx.pos:], "//") {
			for {
				r, w = lx.peekRune()
				if r == 0 || r == '\n' {
					break
				}
				lx.advance(w)
			}
			continue
		}
		if r == '\n' {
			tk := token{kind: tokNewline, line: lx.line, col: lx.col}
			for {
				r, w = lx.peekRune()
				if r != '\n' && r != '\r' && r != ' ' && r != '\t' {
					break
				}
				// Only swallow whitespace runs that contain newlines; plain
				// spaces after a newline are fine to skip too.
				lx.advance(w)
			}
			return tk, nil
		}
		if unicode.IsSpace(r) {
			lx.advance(w)
			continue
		}
		break
	}

	line, col := lx.line, lx.col
	r, w := lx.peekRune()
	switch {
	case r == '(':
		lx.advance(w)
		return token{tokLParen, "(", line, col}, nil
	case r == ')':
		lx.advance(w)
		return token{tokRParen, ")", line, col}, nil
	case r == ',':
		lx.advance(w)
		return token{tokComma, ",", line, col}, nil
	case r == '^' || r == '&' || r == '∧':
		lx.advance(w)
		return token{tokAnd, "^", line, col}, nil
	case r == '→':
		lx.advance(w)
		return token{tokArrow, "->", line, col}, nil
	case r == '+':
		lx.advance(w)
		return token{tokPlus, "+", line, col}, nil
	case r == ':':
		lx.advance(w)
		return token{tokColon, ":", line, col}, nil
	case r == '.':
		// A rule-terminating dot behaves like a newline.
		lx.advance(w)
		return token{tokNewline, ".", line, col}, nil
	case r == '-':
		if strings.HasPrefix(lx.src[lx.pos:], "->") {
			lx.advance(2)
			return token{tokArrow, "->", line, col}, nil
		}
		lx.advance(w)
		return token{tokMinus, "-", line, col}, nil
	case r == '≠':
		lx.advance(w)
		return token{tokCmp, "!=", line, col}, nil
	case r == '≤':
		lx.advance(w)
		return token{tokCmp, "<=", line, col}, nil
	case r == '≥':
		lx.advance(w)
		return token{tokCmp, ">=", line, col}, nil
	case r == '<' && lx.looksLikeIRI():
		lx.advance(w)
		start := lx.pos
		for {
			cr, cw := lx.peekRune()
			if cr == 0 {
				return token{}, lx.errorf(line, col, "unterminated IRI")
			}
			if cr == '>' {
				text := lx.src[start:lx.pos]
				lx.advance(cw)
				return token{tokIRI, text, line, col}, nil
			}
			lx.advance(cw)
		}
	case r == '=', r == '<', r == '>', r == '!':
		op := string(r)
		lx.advance(w)
		if nr, nw := lx.peekRune(); nr == '=' {
			op += "="
			lx.advance(nw)
		}
		if op == "!" {
			return token{}, lx.errorf(line, col, "unexpected '!'")
		}
		if op == "==" {
			op = "="
		}
		return token{tokCmp, op, line, col}, nil
	case r == '"':
		lx.advance(w)
		start := lx.pos
		for {
			cr, cw := lx.peekRune()
			if cr == 0 {
				return token{}, lx.errorf(line, col, "unterminated string")
			}
			if cr == '"' {
				text := lx.src[start:lx.pos]
				lx.advance(cw)
				return token{tokString, text, line, col}, nil
			}
			lx.advance(cw)
		}
	case r == '[':
		start := lx.pos
		for {
			cr, cw := lx.peekRune()
			if cr == 0 {
				return token{}, lx.errorf(line, col, "unterminated interval")
			}
			lx.advance(cw)
			if cr == ']' {
				return token{tokInterval, lx.src[start:lx.pos], line, col}, nil
			}
		}
	case r == '?':
		lx.advance(w)
		start := lx.pos
		for {
			cr, cw := lx.peekRune()
			if !isIdentRune(cr) {
				break
			}
			lx.advance(cw)
		}
		if lx.pos == start {
			return token{}, lx.errorf(line, col, "empty variable name after '?'")
		}
		return token{tokVar, lx.src[start:lx.pos], line, col}, nil
	case r >= '0' && r <= '9':
		start := lx.pos
		for {
			cr, cw := lx.peekRune()
			if !(cr >= '0' && cr <= '9') && cr != '.' {
				break
			}
			// A '.' not followed by a digit terminates the rule instead.
			if cr == '.' {
				rest := lx.src[lx.pos+cw:]
				if len(rest) == 0 || rest[0] < '0' || rest[0] > '9' {
					break
				}
			}
			lx.advance(cw)
		}
		return token{tokNumber, lx.src[start:lx.pos], line, col}, nil
	case isIdentStart(r):
		start := lx.pos
		for {
			cr, cw := lx.peekRune()
			if !isIdentRune(cr) && cr != '\'' {
				break
			}
			lx.advance(cw)
		}
		return token{tokIdent, lx.src[start:lx.pos], line, col}, nil
	}
	return token{}, lx.errorf(line, col, "unexpected character %q", r)
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// looksLikeIRI reports whether the '<' at the current position starts an
// angle-bracketed IRI rather than a comparison: the next character must
// be an IRI-ish byte and a closing '>' must appear before any whitespace.
func (lx *lexer) looksLikeIRI() bool {
	rest := lx.src[lx.pos+1:]
	if rest == "" {
		return false
	}
	c := rest[0]
	if !(c == '_' || c == '/' || c == ':' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
		return false
	}
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '>':
			return true
		case ' ', '\t', '\n', '\r':
			return false
		}
	}
	return false
}
