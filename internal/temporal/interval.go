// Package temporal implements the discrete time domain used by uncertain
// temporal knowledge graphs (utkgs): closed integer intervals over a
// linearly ordered, finite sequence of chronons, and Allen's interval
// relations (the thirteen basic relations, their converses and the
// relation sets the constraint language names).
//
// The package follows the data model of the TeCoRe paper (VLDB 2017):
// every temporal fact is annotated with a validity interval [start, end]
// whose endpoints are chronons (years, days, milliseconds — the
// granularity is chosen by the application and is opaque to the algebra).
package temporal

import (
	"fmt"
	"strconv"
	"strings"
)

// Chronon is a single point of the discrete time domain. The unit (year,
// day, millisecond, ...) is application-defined; the algebra only relies
// on the linear order.
type Chronon = int64

// Interval is a closed, non-empty interval [Start, End] over the discrete
// time domain. Start must be <= End; use New to validate.
type Interval struct {
	Start Chronon
	End   Chronon
}

// New returns the interval [start, end]. It reports an error if
// start > end (the empty interval is not representable; temporal facts
// always hold for at least one chronon).
func New(start, end Chronon) (Interval, error) {
	if start > end {
		return Interval{}, fmt.Errorf("temporal: invalid interval [%d,%d]: start after end", start, end)
	}
	return Interval{Start: start, End: end}, nil
}

// MustNew is like New but panics on invalid input. Intended for literals
// in tests and examples.
func MustNew(start, end Chronon) Interval {
	iv, err := New(start, end)
	if err != nil {
		panic(err)
	}
	return iv
}

// Valid reports whether the interval is well formed (Start <= End).
func (iv Interval) Valid() bool { return iv.Start <= iv.End }

// Duration returns the number of chronons covered by the interval.
// A point interval has duration 1.
func (iv Interval) Duration() int64 { return iv.End - iv.Start + 1 }

// Intersects reports whether the two intervals share at least one chronon.
func (iv Interval) Intersects(other Interval) bool {
	return iv.Start <= other.End && other.Start <= iv.End
}

// Intersect returns the common sub-interval of iv and other. ok is false
// when the intervals are disjoint.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	s := max64(iv.Start, other.Start)
	e := min64(iv.End, other.End)
	if s > e {
		return Interval{}, false
	}
	return Interval{Start: s, End: e}, true
}

// Span returns the smallest interval covering both iv and other,
// including any gap between them.
func (iv Interval) Span(other Interval) Interval {
	return Interval{Start: min64(iv.Start, other.Start), End: max64(iv.End, other.End)}
}

// String renders the interval in the paper's notation, e.g. "[2000,2004]".
func (iv Interval) String() string {
	var buf [48]byte
	b := append(buf[:0], '[')
	b = strconv.AppendInt(b, iv.Start, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, iv.End, 10)
	return string(append(b, ']'))
}

// Parse parses the textual form "[start,end]" (whitespace tolerated)
// produced by String.
func Parse(s string) (Interval, error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || t[0] != '[' || t[len(t)-1] != ']' {
		return Interval{}, fmt.Errorf("temporal: malformed interval %q: want [start,end]", s)
	}
	body := t[1 : len(t)-1]
	comma := strings.IndexByte(body, ',')
	if comma < 0 {
		return Interval{}, fmt.Errorf("temporal: malformed interval %q: missing comma", s)
	}
	start, err := strconv.ParseInt(strings.TrimSpace(body[:comma]), 10, 64)
	if err != nil {
		return Interval{}, fmt.Errorf("temporal: malformed interval %q: %v", s, err)
	}
	end, err := strconv.ParseInt(strings.TrimSpace(body[comma+1:]), 10, 64)
	if err != nil {
		return Interval{}, fmt.Errorf("temporal: malformed interval %q: %v", s, err)
	}
	return New(start, end)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
