package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRelationBetweenBasicCases(t *testing.T) {
	tests := []struct {
		name string
		i, j Interval
		want Relation
	}{
		{"before", MustNew(1, 2), MustNew(5, 8), Before},
		{"meets", MustNew(1, 2), MustNew(3, 8), Meets},
		{"overlaps", MustNew(1, 5), MustNew(3, 8), Overlaps},
		{"starts", MustNew(1, 3), MustNew(1, 8), Starts},
		{"during", MustNew(3, 5), MustNew(1, 8), During},
		{"finishes", MustNew(5, 8), MustNew(1, 8), Finishes},
		{"equals", MustNew(1, 8), MustNew(1, 8), Equals},
		{"finishedBy", MustNew(1, 8), MustNew(5, 8), FinishedBy},
		{"contains", MustNew(1, 8), MustNew(3, 5), Contains},
		{"startedBy", MustNew(1, 8), MustNew(1, 3), StartedBy},
		{"overlappedBy", MustNew(3, 8), MustNew(1, 5), OverlappedBy},
		{"metBy", MustNew(3, 8), MustNew(1, 2), MetBy},
		{"after", MustNew(5, 8), MustNew(1, 2), After},
	}
	for _, tc := range tests {
		if got := RelationBetween(tc.i, tc.j); got != tc.want {
			t.Errorf("%s: RelationBetween(%v, %v) = %v, want %v", tc.name, tc.i, tc.j, got, tc.want)
		}
	}
}

// TestJEPD checks that the thirteen relations are jointly exhaustive and
// pairwise disjoint: exactly one endpoint definition holds for every
// pair, and it is the relation RelationBetween returns.
func TestJEPD(t *testing.T) {
	// Each relation spelled out on the endpoints, in the discrete domain
	// (meeting intervals are adjacent chronons), independently of
	// RelationBetween's decision tree.
	defs := [NumRelations]func(i, j Interval) bool{
		Before:       func(i, j Interval) bool { return i.End+1 < j.Start },
		Meets:        func(i, j Interval) bool { return i.End+1 == j.Start },
		Overlaps:     func(i, j Interval) bool { return i.Start < j.Start && j.Start <= i.End && i.End < j.End },
		Starts:       func(i, j Interval) bool { return i.Start == j.Start && i.End < j.End },
		During:       func(i, j Interval) bool { return j.Start < i.Start && i.End < j.End },
		Finishes:     func(i, j Interval) bool { return j.Start < i.Start && i.End == j.End },
		Equals:       func(i, j Interval) bool { return i == j },
		FinishedBy:   func(i, j Interval) bool { return i.Start < j.Start && i.End == j.End },
		Contains:     func(i, j Interval) bool { return i.Start < j.Start && j.End < i.End },
		StartedBy:    func(i, j Interval) bool { return i.Start == j.Start && j.End < i.End },
		OverlappedBy: func(i, j Interval) bool { return j.Start < i.Start && i.Start <= j.End && j.End < i.End },
		MetBy:        func(i, j Interval) bool { return j.End+1 == i.Start },
		After:        func(i, j Interval) bool { return j.End+1 < i.Start },
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		i, j := randIv(rng, 12), randIv(rng, 12)
		got := RelationBetween(i, j)
		count := 0
		for r := Relation(0); r < NumRelations; r++ {
			if defs[r](i, j) {
				count++
				if r != got {
					t.Fatalf("relation %v also holds for (%v,%v) besides %v", r, i, j, got)
				}
			}
		}
		if count != 1 {
			t.Fatalf("JEPD violated for (%v,%v): %d relations hold", i, j, count)
		}
	}
}

// TestInverseProperty checks r(i,j) ⇔ r⁻¹(j,i) on random intervals.
func TestInverseProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		i := normIv(int64(a1), int64(a2))
		j := normIv(int64(b1), int64(b2))
		return RelationBetween(i, j).Inverse() == RelationBetween(j, i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestRelationInverseSymmetric pins, exhaustively on a small chronon
// grid (point intervals included), the identity the grounder's Allen
// filters rely on to test a condition from either operand:
// RelationBetween(j, i) is the converse of RelationBetween(i, j), and a
// set's Inverse holds of (j, i) exactly when the set holds of (i, j).
func TestRelationInverseSymmetric(t *testing.T) {
	var ivs []Interval
	for s := Chronon(0); s <= 5; s++ {
		for e := s; e <= 5; e++ {
			ivs = append(ivs, MustNew(s, e))
		}
	}
	sets := []RelationSet{DisjointSet, IntersectsSet, FullSet, 0}
	for r := Relation(0); r < NumRelations; r++ {
		sets = append(sets, NewRelationSet(r))
	}
	for _, i := range ivs {
		for _, j := range ivs {
			ij, ji := RelationBetween(i, j), RelationBetween(j, i)
			if ji != ij.Inverse() {
				t.Fatalf("RelationBetween(%v, %v) = %v, want %v, the converse of RelationBetween(%v, %v)", j, i, ji, ij.Inverse(), i, j)
			}
			for _, s := range sets {
				if s.Has(ij) != s.Inverse().Has(ji) {
					t.Fatalf("set %v holds of (%v, %v) = %v but its inverse %v of (%v, %v) = %v",
						s, i, j, s.Has(ij), s.Inverse(), j, i, !s.Has(ij))
				}
			}
		}
	}
}

func TestInverseIsInvolution(t *testing.T) {
	for r := Relation(0); r < NumRelations; r++ {
		if r.Inverse().Inverse() != r {
			t.Errorf("Inverse is not an involution for %v", r)
		}
	}
	if Equals.Inverse() != Equals {
		t.Error("Equals should be self-inverse")
	}
}

func TestParseRelation(t *testing.T) {
	tests := []struct {
		in   string
		want Relation
	}{
		{"before", Before}, {"BEFORE", Before}, {"b", Before}, {"<", Before},
		{"meets", Meets}, {"m", Meets},
		{"overlaps", Overlaps}, {"o", Overlaps},
		{"starts", Starts}, {"during", During}, {"finishes", Finishes},
		{"equals", Equals}, {"equal", Equals}, {"eq", Equals},
		{"finishedBy", FinishedBy}, {"finished_by", FinishedBy}, {"finished-by", FinishedBy}, {"fi", FinishedBy},
		{"contains", Contains}, {"di", Contains},
		{"startedBy", StartedBy}, {"si", StartedBy},
		{"overlappedBy", OverlappedBy}, {"oi", OverlappedBy},
		{"metBy", MetBy}, {"mi", MetBy},
		{"after", After}, {"a", After}, {"bi", After},
	}
	for _, tc := range tests {
		got, err := ParseRelation(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRelation(%q) = %v,%v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseRelation("sideways"); err == nil {
		t.Error("ParseRelation should reject unknown names")
	}
}

func TestRelationStringRoundTrip(t *testing.T) {
	for r := Relation(0); r < NumRelations; r++ {
		back, err := ParseRelation(r.String())
		if err != nil || back != r {
			t.Errorf("round trip failed for %v: %v %v", r, back, err)
		}
	}
}

func TestRelationSetOps(t *testing.T) {
	s := NewRelationSet(Before, After)
	if !s.Has(Before) || !s.Has(After) || s.Has(Meets) {
		t.Error("membership wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if got := s.Relations(); len(got) != 2 || got[0] != Before || got[1] != After {
		t.Errorf("Relations = %v, want [before after]", got)
	}
	if FullSet.Len() != NumRelations {
		t.Errorf("FullSet has %d members", FullSet.Len())
	}
}

func TestDisjointSetMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 5000; n++ {
		i, j := randIv(rng, 10), randIv(rng, 10)
		r := RelationBetween(i, j)
		if DisjointSet.Has(r) == i.Intersects(j) {
			t.Fatalf("DisjointSet disagrees with !Intersects for (%v,%v): rel=%v", i, j, r)
		}
		if IntersectsSet.Has(r) != i.Intersects(j) {
			t.Fatalf("IntersectsSet disagrees with Intersects for (%v,%v)", i, j)
		}
	}
}

func TestRelationSetString(t *testing.T) {
	s := NewRelationSet(Before, Meets)
	if got := s.String(); got != "{before, meets}" {
		t.Errorf("String = %q", got)
	}
	if got := RelationSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}
