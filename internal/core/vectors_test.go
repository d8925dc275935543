package core

import (
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// TestMAPVectorsUnwritten pins the contract the read-out cache relies on
// when it holds, rather than copies, the MAP state it last settled
// against: a Truth or SoftValues vector a solve returned is never
// written afterwards — not by a delta solve that warm-starts from it,
// not by a retraction that pins atoms false, not by a no-op re-solve.
func TestMAPVectorsUnwritten(t *testing.T) {
	for _, k := range []struct {
		name string
		opts SolveOptions
	}{
		{"mln", SolveOptions{Solver: translate.SolverMLN}},
		{"psl", SolveOptions{Solver: translate.SolverPSL}},
		{"greedy", SolveOptions{Solver: translate.SolverGreedy}},
	} {
		t.Run(k.name, func(t *testing.T) {
			s := NewSession()
			if err := s.LoadProgramText(equivProgram); err != nil {
				t.Fatal(err)
			}
			for _, q := range equivPool(8, 3) {
				if err := s.AddFact(q); err != nil {
					t.Fatal(err)
				}
			}
			type heldVectors struct {
				step              string
				truth, truthWas   []bool
				values, valuesWas []float64
			}
			var held []heldVectors
			solve := func(step string) {
				t.Helper()
				res, err := s.Solve(k.opts)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				out := res.Output
				if k.opts.Solver == translate.SolverPSL && out.SoftValues == nil {
					t.Fatalf("%s: PSL solve returned no soft values", step)
				}
				held = append(held, heldVectors{step, out.Truth, slices.Clone(out.Truth), out.SoftValues, slices.Clone(out.SoftValues)})
				for _, h := range held {
					if !slices.Equal(h.truth, h.truthWas) {
						t.Fatalf("after %s: the Truth vector returned by %s was written", step, h.step)
					}
					if !slices.Equal(h.values, h.valuesWas) {
						t.Fatalf("after %s: the SoftValues vector returned by %s was written", step, h.step)
					}
				}
			}

			probe := rdf.NewQuad("P1", "coach", "Club_probe", temporal.MustNew(2000, 2002), 0.5)
			solve("cold solve")
			if err := s.AddFact(probe); err != nil {
				t.Fatal(err)
			}
			solve("single-fact add")
			if !s.RemoveFact(probe) {
				t.Fatal("RemoveFact: probe was not live")
			}
			solve("retraction")
			solve("no-op re-solve")
		})
	}
}
