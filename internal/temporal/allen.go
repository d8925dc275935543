package temporal

import (
	"fmt"
	"strings"
)

// Relation is one of Allen's thirteen basic interval relations, adapted to
// the discrete time domain: two intervals "meet" when they are adjacent
// (the first ends exactly one chronon before the second starts), so the
// thirteen relations remain jointly exhaustive and pairwise disjoint.
type Relation uint8

// The thirteen basic Allen relations. For each relation r, r(i, j) reads
// "interval i stands in relation r to interval j".
const (
	// Before: i ends strictly before j starts, with a gap.
	Before Relation = iota
	// Meets: i is immediately followed by j (i.End+1 == j.Start).
	Meets
	// Overlaps: i starts first, the intervals share chronons, j ends last.
	Overlaps
	// Starts: i and j start together and i ends first.
	Starts
	// During: i lies strictly inside j.
	During
	// Finishes: i and j end together and i starts later.
	Finishes
	// Equals: identical endpoints.
	Equals
	// FinishedBy: converse of Finishes (j finishes i).
	FinishedBy
	// Contains: converse of During (j lies strictly inside i).
	Contains
	// StartedBy: converse of Starts (j starts i).
	StartedBy
	// OverlappedBy: converse of Overlaps.
	OverlappedBy
	// MetBy: converse of Meets.
	MetBy
	// After: converse of Before.
	After

	// NumRelations is the number of basic Allen relations.
	NumRelations = 13
)

var relationNames = [NumRelations]string{
	"before", "meets", "overlaps", "starts", "during", "finishes", "equals",
	"finishedBy", "contains", "startedBy", "overlappedBy", "metBy", "after",
}

var relationInverses = [NumRelations]Relation{
	Before:       After,
	Meets:        MetBy,
	Overlaps:     OverlappedBy,
	Starts:       StartedBy,
	During:       Contains,
	Finishes:     FinishedBy,
	Equals:       Equals,
	FinishedBy:   Finishes,
	Contains:     During,
	StartedBy:    Starts,
	OverlappedBy: Overlaps,
	MetBy:        Meets,
	After:        Before,
}

// String returns the lower-camel name used by the constraint language
// (before, meets, overlaps, starts, during, finishes, equals, finishedBy,
// contains, startedBy, overlappedBy, metBy, after).
func (r Relation) String() string {
	if int(r) < len(relationNames) {
		return relationNames[r]
	}
	return fmt.Sprintf("Relation(%d)", uint8(r))
}

// Inverse returns the converse relation: if r(i, j) then Inverse(r)(j, i).
func (r Relation) Inverse() Relation {
	if int(r) < len(relationInverses) {
		return relationInverses[r]
	}
	return r
}

// ParseRelation resolves a relation name as written in the constraint
// language. Matching is case-insensitive and accepts both the camel-case
// names (finishedBy) and underscore/hyphen variants (finished_by,
// finished-by) as well as the common abbreviations used in the Allen
// algebra literature (b, m, o, s, d, f, e/eq, fi, di, si, oi, mi, a/bi).
func ParseRelation(name string) (Relation, error) {
	key := strings.ToLower(strings.NewReplacer("_", "", "-", "").Replace(strings.TrimSpace(name)))
	switch key {
	case "before", "b", "<":
		return Before, nil
	case "meets", "m":
		return Meets, nil
	case "overlaps", "o":
		return Overlaps, nil
	case "starts", "s":
		return Starts, nil
	case "during", "d":
		return During, nil
	case "finishes", "f":
		return Finishes, nil
	case "equals", "equal", "e", "eq", "=":
		return Equals, nil
	case "finishedby", "fi":
		return FinishedBy, nil
	case "contains", "di":
		return Contains, nil
	case "startedby", "si":
		return StartedBy, nil
	case "overlappedby", "oi":
		return OverlappedBy, nil
	case "metby", "mi":
		return MetBy, nil
	case "after", "a", "bi", ">":
		return After, nil
	}
	return 0, fmt.Errorf("temporal: unknown Allen relation %q", name)
}

// RelationBetween returns the unique basic Allen relation that holds
// between i and j. For valid intervals exactly one relation always holds.
func RelationBetween(i, j Interval) Relation {
	switch {
	case i.End+1 < j.Start:
		return Before
	case i.End+1 == j.Start:
		return Meets
	case j.End+1 < i.Start:
		return After
	case j.End+1 == i.Start:
		return MetBy
	}
	// The intervals share at least one chronon from here on.
	switch {
	case i.Start == j.Start && i.End == j.End:
		return Equals
	case i.Start == j.Start:
		if i.End < j.End {
			return Starts
		}
		return StartedBy
	case i.End == j.End:
		if i.Start > j.Start {
			return Finishes
		}
		return FinishedBy
	case i.Start < j.Start:
		if i.End > j.End {
			return Contains
		}
		return Overlaps
	default: // i.Start > j.Start
		if i.End < j.End {
			return During
		}
		return OverlappedBy
	}
}

// RelationSet is a bitset over the thirteen basic relations: an Allen
// condition of the constraint language holds when the relation between
// its two intervals is a member.
type RelationSet uint16

// FullSet contains all thirteen basic relations.
const FullSet RelationSet = (1 << NumRelations) - 1

// NewRelationSet builds a set from the given relations.
func NewRelationSet(rels ...Relation) RelationSet {
	var s RelationSet
	for _, r := range rels {
		s |= 1 << r
	}
	return s
}

// Has reports whether the set contains relation r.
func (s RelationSet) Has(r Relation) bool { return s&(1<<r) != 0 }

// Len returns the number of relations in the set.
func (s RelationSet) Len() int {
	n := 0
	for r := Relation(0); r < NumRelations; r++ {
		if s.Has(r) {
			n++
		}
	}
	return n
}

// Inverse returns the set of the members' converses: i and j stand in a
// relation of s exactly when j and i stand in one of s.Inverse().
func (s RelationSet) Inverse() RelationSet {
	var out RelationSet
	for r := Relation(0); r < NumRelations; r++ {
		if s.Has(r) {
			out |= 1 << r.Inverse()
		}
	}
	return out
}

// Relations returns the members of the set in canonical order.
func (s RelationSet) Relations() []Relation {
	out := make([]Relation, 0, s.Len())
	for r := Relation(0); r < NumRelations; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// String renders the set as "{before, meets, ...}".
func (s RelationSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Relations() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}

// DisjointSet is the set of relations under which two intervals share no
// chronon: the "disjoint" predicate of the TeCoRe constraint language
// (e.g. a person cannot coach two clubs at the same time) is the
// disjunction of these.
var DisjointSet = NewRelationSet(Before, Meets, MetBy, After)

// IntersectsSet is the complement of DisjointSet: the relations under
// which two intervals share at least one chronon ("overlap" in the loose,
// non-Allen sense used by constraint c3 of the paper).
var IntersectsSet = FullSet &^ DisjointSet
