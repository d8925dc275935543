package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/repair"
	"repro/internal/translate"
)

// DeltaOnly solves skip materializing the global fact/cluster lists but
// must stay observationally identical to full solves: exact counts and
// violation totals, the same changelog, and — once a materializing
// solve flushes the deferred splices — byte-identical lists. These
// tests drive two sessions over the same mutation schedule, one in
// DeltaOnly mode for every intermediate step, and compare against the
// always-materializing twin.

func testDeltaOnlyDifferential(t *testing.T, solver translate.Solver, threshold float64) {
	t.Helper()
	mkSession := func() *Session {
		s := NewSession()
		if err := s.LoadProgramText(equivProgram); err != nil {
			t.Fatal(err)
		}
		for i, q := range equivPool(4, 3) {
			if i%2 == 0 {
				if err := s.AddFact(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	sa, sb := mkSession(), mkSession()
	pool := equivPool(4, 3)
	// Same schedule as the byte-identical suite: single-component
	// churn, a component merge, a split, and a no-delta re-solve.
	steps := [][2]int{{1, 1}, {3, 1}, {3, 0}, {-1, 0}, {5, 1}, {1, 0}, {7, 1}}
	mutate := func(s *Session, mv [2]int) {
		if mv[0] < 0 {
			return
		}
		if mv[1] == 1 {
			if err := s.AddFact(pool[mv[0]]); err != nil {
				t.Fatal(err)
			}
		} else {
			s.RemoveFact(pool[mv[0]])
		}
	}
	for step, mv := range steps {
		mutate(sa, mv)
		mutate(sb, mv)
		// The last step materializes on both sessions so the deferred
		// splices accumulated across every DeltaOnly step must land.
		deltaOnly := step < len(steps)-1
		ra, err := sa.Solve(SolveOptions{Solver: solver,
			Threshold: threshold, DeltaOnly: deltaOnly})
		if err != nil {
			t.Fatalf("step %d (delta-only): %v", step, err)
		}
		rb, err := sb.Solve(SolveOptions{Solver: solver, Threshold: threshold})
		if err != nil {
			t.Fatalf("step %d (full): %v", step, err)
		}
		if deltaOnly {
			if got := ra.Stats.Outcome.Mode; got != repair.OutcomeDeltaOnly {
				t.Fatalf("step %d: delta-only solve reported mode %q", step, got)
			}
			if ra.Kept != nil || ra.Removed != nil || ra.Inferred != nil || ra.Clusters != nil {
				t.Fatalf("step %d: delta-only solve materialized lists", step)
			}
		}
		// The changelog is identical in both modes.
		if !reflect.DeepEqual(ra.Delta, rb.Delta) {
			t.Fatalf("step %d: changelog diverged\ndelta-only: %+v\nfull:       %+v", step, ra.Delta, rb.Delta)
		}
		// Counts and violation totals are exact in both modes.
		// RemovedWeight is maintained incrementally on the delta-only
		// path (re-anchored to the exact sum at each materialize), so it
		// is compared within float tolerance rather than bitwise.
		if d := math.Abs(ra.Stats.RemovedWeight - rb.Stats.RemovedWeight); d > 1e-9 {
			t.Fatalf("step %d: RemovedWeight drifted by %g", step, d)
		}
		as, bs := ra.Stats, rb.Stats
		as.RemovedWeight, bs.RemovedWeight = 0, 0
		as.Runtime, bs.Runtime = 0, 0
		as.Repair, bs.Repair = nil, nil // stage stats differ by design
		as.Outcome, bs.Outcome = nil, nil
		as.Ground, bs.Ground = nil, nil
		as.Plan, bs.Plan = nil, nil
		as.Components, bs.Components = nil, nil
		if !reflect.DeepEqual(as, bs) {
			t.Fatalf("step %d: summary stats diverged\ndelta-only: %+v\nfull:       %+v", step, as, bs)
		}
		if !deltaOnly {
			// The materializing solve after the DeltaOnly run must land
			// the composed deferred splices byte-identically.
			a, b := *ra.Outcome, *rb.Outcome
			a.Stats, b.Stats = repair.Stats{}, repair.Stats{}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: materialized outcome diverged after delta-only run", step)
			}
		}
	}
}

func TestDeltaOnlyDifferentialMLN(t *testing.T) {
	testDeltaOnlyDifferential(t, translate.SolverMLN, 0)
}

func TestDeltaOnlyDifferentialMLNThreshold(t *testing.T) {
	testDeltaOnlyDifferential(t, translate.SolverMLN, 0.6)
}

func TestDeltaOnlyDifferentialPSL(t *testing.T) {
	// PSL never reports a truth delta, so the repair analysis runs the
	// full pass — DeltaOnly still defers the list splices.
	testDeltaOnlyDifferential(t, translate.SolverPSL, 0)
}

// TestDeltaOnlyAlternating flips DeltaOnly on and off between solves:
// every materializing solve must flush exactly the churn composed since
// the previous flush, not replay or drop any of it.
func TestDeltaOnlyAlternating(t *testing.T) {
	sa, sb := NewSession(), NewSession()
	for _, s := range []*Session{sa, sb} {
		if err := s.LoadProgramText(equivProgram); err != nil {
			t.Fatal(err)
		}
	}
	pool := equivPool(5, 3)
	for i, q := range pool {
		if i%3 != 2 {
			for _, s := range []*Session{sa, sb} {
				if err := s.AddFact(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for step := 0; step < 8; step++ {
		q := pool[(step*3+2)%len(pool)]
		for _, s := range []*Session{sa, sb} {
			var err error
			if step%2 == 0 {
				err = s.AddFact(q)
			} else {
				s.RemoveFact(q)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ra, err := sa.Solve(SolveOptions{DeltaOnly: step%2 == 0})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rb, err := sb.Solve(SolveOptions{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !reflect.DeepEqual(ra.Delta, rb.Delta) {
			t.Fatalf("step %d: changelog diverged", step)
		}
		if step%2 != 0 {
			a, b := *ra.Outcome, *rb.Outcome
			a.Stats, b.Stats = repair.Stats{}, repair.Stats{}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: materialized outcome diverged after delta-only solve", step)
			}
		}
	}
}
