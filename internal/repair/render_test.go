package repair

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// eagerFact materialises an atom's fact eagerly: the statement and
// evidence confidence read from the atom table at solve time.
func eagerFact(atoms *ground.AtomTable, a ground.AtomID) Fact {
	info := atoms.Info(a)
	return Fact{
		Quad: rdf.Quad{Subject: info.Key.S, Predicate: info.Key.P, Object: info.Key.O,
			Interval: info.Key.Interval, Confidence: info.Conf},
		Derived: !info.Evidence,
		AtomID:  a,
	}
}

// eagerRemoved is eagerFact plus the removal explanations found by a
// whole-graph scan of the constraint groundings in slot order: every
// all-negative clause in which the atom is the one false literal, its
// partners' keys in literal order.
func eagerRemoved(out *translate.Output, a ground.AtomID) Fact {
	atoms := out.Grounder.Atoms()
	f := eagerFact(atoms, a)
	out.Clauses.ForEachSlot(func(_ int32, c *ground.Clause) bool {
		var false_ []ground.AtomID
		for _, l := range c.Lits {
			if !l.Neg {
				return true
			}
			if !out.Truth[l.Atom] {
				false_ = append(false_, l.Atom)
			}
		}
		if len(false_) != 1 || false_[0] != a {
			return true
		}
		ex := Explanation{Rule: c.Rule}
		for _, l := range c.Lits {
			if l.Atom != a {
				ex.Partners = append(ex.Partners, atoms.Info(l.Atom).Key)
			}
		}
		f.Explanations = append(f.Explanations, ex)
		return true
	})
	return f
}

// evidenceWhere lists the evidence atoms whose truth is truth, in id
// order.
func evidenceWhere(out *translate.Output, truth bool) []ground.AtomID {
	atoms := out.Grounder.Atoms()
	var ids []ground.AtomID
	for a := ground.AtomID(0); int(a) < atoms.Len(); a++ {
		if atoms.IsEvidence(a) && out.Truth[a] == truth {
			ids = append(ids, a)
		}
	}
	return ids
}

// derivedTrue lists the true derived atoms in id order.
func derivedTrue(out *translate.Output) []ground.AtomID {
	atoms := out.Grounder.Atoms()
	var ids []ground.AtomID
	for a := ground.AtomID(0); int(a) < atoms.Len(); a++ {
		if !atoms.IsEvidence(a) && out.Truth[a] {
			ids = append(ids, a)
		}
	}
	return ids
}

// churnAtomTable does to the atom table what later solves of the session
// do while an Outcome is held: it raises every evidence confidence
// (InternEvidence keeps the higher one) and interns thousands of atoms
// over never-seen terms, so the key codes and the dictionary relocate.
func churnAtomTable(atoms *ground.AtomTable) {
	for a := ground.AtomID(0); int(a) < atoms.Len(); a++ {
		if atoms.IsEvidence(a) {
			atoms.InternEvidence(atoms.Info(a).Key, 1, atoms.BackingFact(a))
		}
	}
	for i := 0; i < 5000; i++ {
		atoms.Intern(rdf.FactKey{
			S: rdf.NewIRI(fmt.Sprintf("fresh/s%d", i)), P: rdf.NewIRI("fresh/p"),
			O: rdf.NewLangLiteral(fmt.Sprintf("o%d", i), "en"), Interval: temporal.MustNew(1, int64(2+i)),
		})
	}
}

// TestRenderMatchesEagerMaterialisation is the rendering equivalence
// table: for each kind of record, the value a reader sees from an
// Outcome equals the eager materialisation taken right after the solve,
// even though the atom table was churned (confidences raised, keys and
// terms relocated) before the Outcome was read.
func TestRenderMatchesEagerMaterialisation(t *testing.T) {
	const twoExplanations = `
CR coach Chelsea [2000,2002] 0.9
CR coach Roma [2004,2006] 0.9
CR coach Napoli [2001,2005] 0.6
`
	const c2 = `c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf`
	const valueTies = `
<CR> <birthDate> <1951> [1951,2017] 0.9
<CR> <birthDate> "1951" [1951,2017] 0.8
<CR> <birthDate> "1951"^^<http://www.w3.org/2001/XMLSchema#integer> [1951,2017] 0.7
<CR> <birthDate> "1951"@en [1951,2017] 0.6
<CR> <birthDate> "1951"@it [1951,2017] 0.55
<CR> <birthDate> _:1951 [1951,2017] 0.5
`
	const birth = `b: quad(x, birthDate, y, t) ^ quad(x, birthDate, z, t') ^ y != z -> disjoint(t, t') w = inf`

	for _, tc := range []struct {
		name        string
		data, rules string
		solver      translate.Solver
		// eager materialises the expected list right after the solve.
		eager func(t *testing.T, out *translate.Output, oc *Outcome) any
		// render reads the list from the Outcome after the churn.
		render func(oc *Outcome) any
	}{
		{
			name: "evidence confidence raised after the solve", data: figure1, rules: figure4and6,
			solver: translate.SolverMLN,
			eager: func(t *testing.T, out *translate.Output, _ *Outcome) any {
				var want []Fact
				for _, a := range evidenceWhere(out, true) {
					want = append(want, eagerFact(out.Grounder.Atoms(), a))
				}
				if len(want) != 4 || want[0].Quad.Confidence == 1 {
					t.Fatalf("fixture kept %v", want)
				}
				return want
			},
			render: func(oc *Outcome) any { return collect(oc.Kept.Each) },
		},
		{
			name: "derived confidence, MLN", data: figure1, rules: figure4and6, solver: translate.SolverMLN,
			eager: func(t *testing.T, out *translate.Output, _ *Outcome) any {
				ids := derivedTrue(out)
				if len(ids) != 1 {
					t.Fatalf("fixture derived %v", ids)
				}
				f := eagerFact(out.Grounder.Atoms(), ids[0])
				// worksFor from playsFor (0.5) through f1 (w = 2.5).
				f.Quad.Confidence = 0.5 / (1 + math.Exp(-2.5))
				return []Fact{f}
			},
			render: func(oc *Outcome) any { return collect(oc.Inferred.Each) },
		},
		{
			name: "derived confidence, PSL", data: figure1, rules: figure4and6, solver: translate.SolverPSL,
			eager: func(t *testing.T, out *translate.Output, _ *Outcome) any {
				ids := derivedTrue(out)
				if len(ids) != 1 {
					t.Fatalf("fixture derived %v", ids)
				}
				f := eagerFact(out.Grounder.Atoms(), ids[0])
				f.Quad.Confidence = out.SoftValues[ids[0]]
				return []Fact{f}
			},
			render: func(oc *Outcome) any { return collect(oc.Inferred.Each) },
		},
		{
			name: "removed fact with two explanations", data: twoExplanations, rules: c2,
			solver: translate.SolverMLN,
			eager: func(t *testing.T, out *translate.Output, _ *Outcome) any {
				var want []Fact
				for _, a := range evidenceWhere(out, false) {
					want = append(want, eagerRemoved(out, a))
				}
				if len(want) != 1 || len(want[0].Explanations) < 2 ||
					want[0].Explanations[0].Partners[0].O == want[0].Explanations[len(want[0].Explanations)-1].Partners[0].O {
					t.Fatalf("fixture removed %v, want Napoli explained by Chelsea and Roma", want)
				}
				return want
			},
			render: func(oc *Outcome) any { return collect(oc.Removed.Each) },
		},
		{
			name: "removed fact explained by groundings of zero and two partners", data: twoExplanations,
			rules: `u: quad(x, coach, Napoli, t) -> false w = inf
t3: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ quad(x, coach, v, t'') ^ y != z ^ y != v ^ z != v -> false w = inf`,
			solver: translate.SolverMLN,
			eager: func(t *testing.T, out *translate.Output, _ *Outcome) any {
				var want []Fact
				for _, a := range evidenceWhere(out, false) {
					want = append(want, eagerRemoved(out, a))
				}
				partners := map[int]bool{}
				for _, f := range want {
					for _, e := range f.Explanations {
						partners[len(e.Partners)] = true
					}
				}
				if len(want) != 1 || !partners[0] || !partners[2] {
					t.Fatalf("fixture removed %v, want Napoli explained by u alone and by t3 with two partners", want)
				}
				return want
			},
			render: func(oc *Outcome) any { return collect(oc.Removed.Each) },
		},
		{
			name: "cluster members tying on value", data: valueTies, rules: birth,
			solver: translate.SolverMLN,
			eager: func(t *testing.T, out *translate.Output, oc *Outcome) any {
				atoms := out.Grounder.Atoms()
				var keys []rdf.FactKey
				for a := ground.AtomID(0); int(a) < atoms.Len(); a++ {
					keys = append(keys, atoms.Info(a).Key)
				}
				if len(keys) != 6 {
					t.Fatalf("fixture interned %d atoms, want the six birth dates", len(keys))
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
				clusters := collect(oc.Clusters.Each)
				if len(clusters) != 1 {
					t.Fatalf("fixture has %d clusters, want one", len(clusters))
				}
				return []Cluster{{Root: clusters[0].Root, Keys: keys}}
			},
			render: func(oc *Outcome) any { return collect(oc.Clusters.Each) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, oc := solveOut(t, tc.data, tc.rules, tc.solver, false, Options{})
			want := tc.eager(t, out, oc)
			churnAtomTable(out.Grounder.Atoms())
			if got := tc.render(oc); !reflect.DeepEqual(got, want) {
				t.Fatalf("rendered %+v\nwant      %+v", got, want)
			}
		})
	}
}
