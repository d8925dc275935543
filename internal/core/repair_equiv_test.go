package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// The component-decomposed repair read-out's contract is stronger than
// the cross-session property suite can check: for the SAME solver
// output (same atom ids, same truth vector), ResolveComponents must
// produce an Outcome byte-identical to whole-graph Resolve — facts,
// order, explanations, clusters, confidences and statistics — including
// when most components come out of the repair cache. These tests drive
// an incremental session and compare the two read-outs at every step.

const equivProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
star: quad(x, coach, y, t) ^ quad(z, coach, y, t') ^ x != z -> disjoint(t, t') w = inf
`

// equivPool builds per-subject conflict chains plus playsFor facts
// feeding the inference rule (so the read-out has derived facts with
// propagated confidences) and cross-subject bridges (so deltas merge
// and split components).
func equivPool(subjects, spells int) []rdf.Quad {
	var pool []rdf.Quad
	for s := 0; s < subjects; s++ {
		subj := fmt.Sprintf("P%d", s)
		start := int64(2000)
		for c := 0; c < spells; c++ {
			club := fmt.Sprintf("Club_%d_%d", s, c)
			end := start + 2 + int64((s+c)%3)
			pool = append(pool, rdf.NewQuad(subj, "coach", club,
				temporal.MustNew(start, end), 0.5+0.07*float64((s*spells+c)%7)))
			start = end
		}
		pool = append(pool, rdf.NewQuad(subj, "playsFor", fmt.Sprintf("Club_%d_0", s),
			temporal.MustNew(1990, 1995), 0.6+0.05*float64(s%5)))
		if s > 0 {
			pool = append(pool, rdf.NewQuad(subj, "coach", fmt.Sprintf("Club_%d_0", s-1),
				temporal.MustNew(2000, 2002), 0.55))
		}
	}
	return pool
}

func testComponentRepairByteIdentical(t *testing.T, solver translate.Solver, threshold float64) {
	t.Helper()
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(4, 3)
	for i, q := range pool {
		if i%2 == 0 {
			if err := s.AddFact(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A mutation schedule that dirties single components, merges two
	// (bridge add), splits them again (bridge remove), and includes a
	// no-delta re-solve (everything reused from both caches).
	steps := [][2]int{{1, 1}, {3, 1}, {3, 0}, {-1, 0}, {5, 1}, {1, 0}, {7, 1}}
	for step, mv := range steps {
		if mv[0] >= 0 {
			if mv[1] == 1 {
				if err := s.AddFact(pool[mv[0]]); err != nil {
					t.Fatal(err)
				}
			} else {
				s.RemoveFact(pool[mv[0]])
			}
		}
		res, err := s.Solve(SolveOptions{Solver: solver, Threshold: threshold})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rs := res.Stats.Repair
		if rs == nil || rs.Mode != repair.RepairComponents {
			t.Fatalf("step %d: component solve did not take the component repair path: %+v", step, rs)
		}
		if step > 0 && rs.Reused == 0 {
			t.Fatalf("step %d: incremental re-repair reused no components: %+v", step, rs)
		}

		// Whole-graph read-out over the exact same solver output.
		whole, err := repair.Resolve(res.Output, repair.Options{Threshold: threshold})
		if err != nil {
			t.Fatalf("step %d: whole-graph resolve: %v", step, err)
		}
		a, b := *res.Outcome, *whole
		a.Stats.Repair, b.Stats.Repair = nil, nil // stage stats differ by design
		a.Stats.Outcome, b.Stats.Outcome = nil, nil
		a.Stats.Ground, b.Stats.Ground = nil, nil
		a.Stats.Plan, b.Stats.Plan = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: component repair diverged from whole-graph repair\ncomponent: %+v\nwhole:     %+v",
				step, a.Stats, b.Stats)
		}
	}
}

func TestComponentRepairByteIdenticalMLN(t *testing.T) {
	testComponentRepairByteIdentical(t, translate.SolverMLN, 0)
}

func TestComponentRepairByteIdenticalMLNThreshold(t *testing.T) {
	// A positive threshold exercises the ThresholdFiltered split of the
	// derived-confidence pass in both read-outs.
	testComponentRepairByteIdentical(t, translate.SolverMLN, 0.6)
}

func TestComponentRepairByteIdenticalPSL(t *testing.T) {
	// Same solver output on both sides, so even PSL's soft-value-derived
	// confidences must agree bitwise.
	testComponentRepairByteIdentical(t, translate.SolverPSL, 0)
}

// TestComponentRepairUnconvergedPSL starves ADMM so no component
// converges: every no-delta re-solve resumes iteration, moving the soft
// values while the discrete truth and the component generations can
// stand perfectly still. The repair cache must detect the moved values
// and not replay units whose inferred confidences embed the previous
// iterates — the read-out must still match whole-graph Resolve over the
// same output bitwise.
func TestComponentRepairUnconvergedPSL(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivPool(3, 3) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverPSL}
	// 10 sweeps: far from converged (values still move every re-solve)
	// but close enough that the discretised truth is stable — the exact
	// combination where a truth-only cache check would replay stale
	// confidences.
	s.budget.pslMaxIter = 10
	for step := 0; step < 3; step++ {
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Output.PSL.Converged {
			t.Fatal("one ADMM sweep cannot have converged; bad test setup")
		}
		whole, err := repair.Resolve(res.Output, repair.Options{})
		if err != nil {
			t.Fatalf("step %d: whole-graph resolve: %v", step, err)
		}
		a, b := *res.Outcome, *whole
		a.Stats.Repair, b.Stats.Repair = nil, nil
		a.Stats.Outcome, b.Stats.Outcome = nil, nil
		a.Stats.Ground, b.Stats.Ground = nil, nil
		a.Stats.Plan, b.Stats.Plan = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: repair replayed units computed from stale ADMM iterates", step)
		}
	}
}
