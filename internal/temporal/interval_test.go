package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	iv, err := New(2000, 2004)
	if err != nil {
		t.Fatalf("New(2000, 2004) failed: %v", err)
	}
	if iv.Start != 2000 || iv.End != 2004 {
		t.Errorf("got %v, want [2000,2004]", iv)
	}
	if _, err := New(5, 3); err == nil {
		t.Error("New(5, 3) should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(2, 1) should panic")
		}
	}()
	MustNew(2, 1)
}

func TestDuration(t *testing.T) {
	if d := MustNew(2000, 2004).Duration(); d != 5 {
		t.Errorf("Duration = %d, want 5", d)
	}
	if d := MustNew(1951, 1951).Duration(); d != 1 {
		t.Errorf("point duration = %d, want 1", d)
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b   Interval
		want   Interval
		wantOK bool
	}{
		{MustNew(2000, 2004), MustNew(2001, 2003), MustNew(2001, 2003), true},
		{MustNew(2000, 2004), MustNew(2003, 2008), MustNew(2003, 2004), true},
		{MustNew(2000, 2004), MustNew(2005, 2008), Interval{}, false},
		{MustNew(2000, 2004), MustNew(2004, 2008), MustNew(2004, 2004), true},
	}
	for _, tc := range tests {
		got, ok := tc.a.Intersect(tc.b)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("%v ∩ %v = %v,%v; want %v,%v", tc.a, tc.b, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestSpan(t *testing.T) {
	a, c := MustNew(2000, 2002), MustNew(2007, 2009)
	if sp := a.Span(c); sp != MustNew(2000, 2009) {
		t.Errorf("Span = %v, want [2000,2009]", sp)
	}
	if sp := c.Span(a); sp != MustNew(2000, 2009) {
		t.Errorf("Span = %v, want [2000,2009]", sp)
	}
}

func TestParseString(t *testing.T) {
	for _, s := range []string{"[2000,2004]", "[ 1951 , 2017 ]", "[-5,3]"} {
		iv, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		back, err := Parse(iv.String())
		if err != nil || back != iv {
			t.Errorf("round trip of %q failed: %v %v", s, back, err)
		}
	}
	for _, s := range []string{"", "2000,2004", "[2000]", "[a,b]", "[5,3]"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseStringRoundTripProperty(t *testing.T) {
	f := func(a, b int32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		iv := MustNew(lo, hi)
		back, err := Parse(iv.String())
		return err == nil && back == iv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectCommutativeProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		i := normIv(int64(a1), int64(a2))
		j := normIv(int64(b1), int64(b2))
		x, okx := i.Intersect(j)
		y, oky := j.Intersect(i)
		return okx == oky && x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// normIv builds a valid interval from two arbitrary endpoints.
func normIv(a, b int64) Interval {
	if a > b {
		a, b = b, a
	}
	return Interval{Start: a, End: b}
}

func TestIntersectionIsContained(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		i := normIv(int64(a1), int64(a2))
		j := normIv(int64(b1), int64(b2))
		x, ok := i.Intersect(j)
		if !ok {
			return !i.Intersects(j)
		}
		return i.Start <= x.Start && x.End <= i.End && j.Start <= x.Start && x.End <= j.End
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randIv(rng *rand.Rand, span int64) Interval {
	s := rng.Int63n(span)
	return Interval{Start: s, End: s + rng.Int63n(span-s+1)}
}
