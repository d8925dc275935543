package tecore_test

import (
	"reflect"
	"testing"

	tecore "repro"
	"repro/internal/translate"
)

// solveAt runs one full conflict-resolution pass at the given
// parallelism and strips the wall-clock fields (solver runtime, plan
// sync time and the ground/repair/outcome stage timings), the only parts
// of the outcome allowed to vary between runs.
func solveAt(t *testing.T, ds *tecore.Dataset, program string, solver tecore.Solver,
	parallelism int) *tecore.Outcome {
	t.Helper()
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(tecore.SolveOptions{Solver: solver, Parallelism: parallelism})
	if err != nil {
		t.Fatalf("solver %v parallelism %d: %v", solver, parallelism, err)
	}
	oc := *res.Outcome
	oc.Stats.Runtime = 0
	oc.Stats.Repair = nil
	oc.Stats.Outcome = nil
	oc.Stats.Ground = nil
	if oc.Stats.Plan != nil {
		ps := *oc.Stats.Plan
		ps.Sync = 0
		oc.Stats.Plan = &ps
	}
	return &oc
}

// TestSolveDeterministicAcrossParallelism is the end-to-end determinism
// guarantee of the parallel pipeline: kept, removed and inferred facts,
// conflict clusters, statistics and explanations are identical whether
// the solve runs sequentially or across all cores — for every solver
// kernel.
func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 150, NoiseRatio: 0.8, Seed: 21})
	program := tecore.FootballProgram + `
pf1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
`
	cases := []struct {
		name   string
		solver tecore.Solver
	}{
		{"mln", tecore.SolverMLN},
		{"psl", tecore.SolverPSL},
		{"greedy", translate.SolverGreedy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := solveAt(t, ds, program, tc.solver, 1)
			if base.Stats.RemovedFacts == 0 {
				t.Fatal("fixture removed nothing; determinism check would be vacuous")
			}
			for _, p := range []int{4, 0} { // explicit pool and the all-cores default
				got := solveAt(t, ds, program, tc.solver, p)
				if !reflect.DeepEqual(got.Stats, base.Stats) {
					t.Errorf("parallelism %d: stats diverge:\n got %+v\nwant %+v", p, got.Stats, base.Stats)
				}
				if !reflect.DeepEqual(got.Kept, base.Kept) {
					t.Errorf("parallelism %d: kept facts diverge (%d vs %d)", p, got.Kept.Len(), base.Kept.Len())
				}
				if !reflect.DeepEqual(got.Removed, base.Removed) {
					t.Errorf("parallelism %d: removed facts diverge (%d vs %d)", p, got.Removed.Len(), base.Removed.Len())
				}
				if !reflect.DeepEqual(got.Inferred, base.Inferred) {
					t.Errorf("parallelism %d: inferred facts diverge (%d vs %d)", p, got.Inferred.Len(), base.Inferred.Len())
				}
				if !reflect.DeepEqual(got.Clusters, base.Clusters) {
					t.Errorf("parallelism %d: conflict clusters diverge", p)
				}
			}
		})
	}
}
