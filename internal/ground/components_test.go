package ground

import (
	"math"
	"reflect"
	"testing"
)

func hardClause(rule string, atoms ...AtomID) Clause {
	c := Clause{Weight: math.Inf(1), Rule: rule}
	for _, a := range atoms {
		c.Lits = append(c.Lits, Lit{Atom: a, Neg: true})
	}
	return c
}

func compAtoms(comps []Component) [][]AtomID {
	out := make([][]AtomID, len(comps))
	for i, c := range comps {
		out[i] = c.Atoms
	}
	return out
}

func TestComponentsPartition(t *testing.T) {
	cs := NewClauseSet()
	cs.Add(hardClause("a", 0, 1))
	cs.Add(hardClause("b", 1, 2))
	cs.Add(hardClause("c", 3, 4))
	comps := cs.Components([]AtomID{0, 1, 2, 3, 4, 5})
	want := [][]AtomID{{0, 1, 2}, {3, 4}, {5}}
	if got := compAtoms(comps); !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	for i, key := range []AtomID{0, 3, 5} {
		if comps[i].Key != key {
			t.Fatalf("component %d key = %d, want %d", i, comps[i].Key, key)
		}
	}
}

func TestComponentsMergeBumpsGeneration(t *testing.T) {
	cs := NewClauseSet()
	cs.Add(hardClause("a", 0, 1))
	cs.Add(hardClause("b", 2, 3))
	order := []AtomID{0, 1, 2, 3}
	before := cs.Components(order)
	if len(before) != 2 {
		t.Fatalf("expected 2 components, got %d", len(before))
	}
	cs.Add(hardClause("bridge", 1, 2))
	after := cs.Components(order)
	if len(after) != 1 {
		t.Fatalf("expected 1 merged component, got %d", len(after))
	}
	if after[0].Gen <= before[0].Gen || after[0].Gen <= before[1].Gen {
		t.Fatalf("merge did not advance the generation: %d vs %d/%d",
			after[0].Gen, before[0].Gen, before[1].Gen)
	}
	if !reflect.DeepEqual(after[0].Atoms, order) {
		t.Fatalf("merged atoms = %v", after[0].Atoms)
	}
}

func TestComponentsWeightMergeBumpsGeneration(t *testing.T) {
	cs := NewClauseSet()
	cs.Add(Clause{Lits: []Lit{{Atom: 0, Neg: true}, {Atom: 1, Neg: true}}, Weight: 1, Rule: "r"})
	g1 := cs.Components([]AtomID{0, 1})[0].Gen
	// Same grounding again: weights merge, the subproblem changes.
	cs.Add(Clause{Lits: []Lit{{Atom: 0, Neg: true}, {Atom: 1, Neg: true}}, Weight: 1, Rule: "r"})
	g2 := cs.Components([]AtomID{0, 1})[0].Gen
	if g2 <= g1 {
		t.Fatalf("weight merge did not advance the generation: %d vs %d", g2, g1)
	}
}

func TestComponentsLazySplit(t *testing.T) {
	cs := NewClauseSet()
	cs.Add(hardClause("a", 0, 1))
	cs.Add(hardClause("b", 1, 2))
	cs.Add(hardClause("c", 3, 4))
	all := []AtomID{0, 1, 2, 3, 4}
	before := cs.Components(all)
	if len(before) != 2 {
		t.Fatalf("expected 2 components, got %d", len(before))
	}
	// Retract atom 1: both its clauses tombstone and {0,1,2} splits.
	cs.RemoveAtoms([]AtomID{1})
	after := cs.Components([]AtomID{0, 2, 3, 4})
	want := [][]AtomID{{0}, {2}, {3, 4}}
	if got := compAtoms(after); !reflect.DeepEqual(got, want) {
		t.Fatalf("components after split = %v, want %v", got, want)
	}
	if after[0].Gen == before[0].Gen || after[1].Gen == before[0].Gen || after[0].Gen == after[1].Gen {
		t.Fatalf("split pieces did not get fresh distinct generations: %+v (before %d)",
			after, before[0].Gen)
	}
	// The untouched component keeps its generation (cacheable).
	if after[2].Gen != before[1].Gen {
		t.Fatalf("untouched component generation changed: %d vs %d", after[2].Gen, before[1].Gen)
	}
	// Revive the grounding: the component reunites under a fresh gen.
	cs.Add(hardClause("a", 0, 1))
	revived := cs.Components(all[:3])
	if len(revived) != 2 || !reflect.DeepEqual(revived[0].Atoms, []AtomID{0, 1}) {
		t.Fatalf("revival did not re-merge: %v", compAtoms(revived))
	}
}

func TestTouchAtomBumpsGeneration(t *testing.T) {
	cs := NewClauseSet()
	cs.Add(hardClause("a", 0, 1))
	order := []AtomID{0, 1, 2}
	before := cs.Components(order)
	cs.TouchAtom(1)
	cs.TouchAtom(2) // isolated singleton
	after := cs.Components(order)
	if after[0].Gen <= before[0].Gen {
		t.Fatalf("touch did not advance the clause component generation: %d vs %d",
			after[0].Gen, before[0].Gen)
	}
	if after[1].Gen <= before[1].Gen {
		t.Fatalf("touch did not advance the singleton generation: %d vs %d",
			after[1].Gen, before[1].Gen)
	}
	if got, want := compAtoms(after), compAtoms(before); !reflect.DeepEqual(got, want) {
		t.Fatalf("touch changed membership: %v vs %v", got, want)
	}
}
