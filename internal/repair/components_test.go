package repair

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/translate"
)

// TestComponentReuseChecksMAPState pins the read-out cache's reuse rule
// on a pass that visits every component: a component whose generation
// and membership stand still is reused only when the output carries, on
// its atoms, the MAP state the cache last settled against — the truth,
// and on the PSL path the soft values too.
func TestComponentReuseChecksMAPState(t *testing.T) {
	for _, solver := range []translate.Solver{translate.SolverMLN, translate.SolverPSL} {
		t.Run(solver.String(), func(t *testing.T) {
			out, _ := solveOut(t, figure1, figure4and6, solver, false, Options{})
			plan := engine.NewPlan(out.Grounder.Atoms(), out.Clauses)
			cache := NewComponentCache()
			repaired := func(step string, o *translate.Output, want int) {
				t.Helper()
				oc, err := ResolveComponents(o, nil, Options{}, plan, cache)
				if err != nil {
					t.Fatal(err)
				}
				if got := oc.Stats.Repair.Repaired; got != want {
					t.Fatalf("%s: %d components repaired, want %d", step, got, want)
				}
			}
			repaired("first read-out", out, len(plan.Comps))
			same := *out
			repaired("same MAP state", &same, 0)

			// One atom's truth moves in a fresh vector: only its
			// component is repaired, and the settled state moves with it.
			a := plan.Comps[len(plan.Comps)-1].Atoms[0]
			flipped := *out
			flipped.Truth = slices.Clone(out.Truth)
			flipped.Truth[a] = !flipped.Truth[a]
			repaired("one truth flipped", &flipped, 1)
			repaired("flipped back", out, 1)

			if out.SoftValues != nil {
				moved := *out
				moved.SoftValues = slices.Clone(out.SoftValues)
				moved.SoftValues[a] += 0.125
				repaired("one soft value moved", &moved, 1)
				repaired("moved back", out, 1)
			}
		})
	}
}
