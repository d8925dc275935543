package core

import (
	"testing"

	"repro/internal/kgen"
	"repro/internal/translate"
)

// The tests here need a kernel starved of its search budget, which only
// the session's unexported budget reaches: production solves run every
// kernel at its package defaults.

// TestComponentEngineFallback starves the branch-and-bound's node budget
// so a 20-atom clique, too wide for elimination and small enough for the
// branch-and-bound, cannot finish: the orchestrator must fall back to
// local search for that component, record the fallback in the stats,
// and still return a feasible state.
func TestComponentEngineFallback(t *testing.T) {
	s := NewSession()
	if err := s.LoadGraph(append(equivPool(2, 5), coachClique("Q", 20)...)); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	s.budget.nodeLimit = 2
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Stats.Components
	if cs == nil {
		t.Fatal("no component stats on a component solve")
	}
	if cs.Fallbacks == 0 || cs.Engines["exact→local"] == 0 {
		t.Fatalf("node-limit exhaustion not recorded as fallback: %+v", cs)
	}
	if !res.Output.MLN.HardSatisfied {
		t.Fatal("fallback solve left hard constraints violated")
	}
	if res.Output.MLN.Optimal {
		t.Fatal("fallback solve must not claim optimality")
	}
}

// TestComponentCacheSkipsUnconvergedPSL starves ADMM's iteration budget
// so no component converges: a re-solve must not reuse the unconverged
// iterates (or report them as converged) — it resumes iterating instead.
func TestComponentCacheSkipsUnconvergedPSL(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 6, ClusterSize: 5, Seed: 17})
	s := NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	s.budget.pslMaxIter = 1
	opts := SolveOptions{Solver: translate.SolverPSL}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.PSL.Converged {
		t.Fatal("one ADMM sweep cannot have converged; bad test setup")
	}
	res, err = s.Solve(opts) // no delta: unconverged entries must not be reused
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Stats.Components
	if cs.Reused != 0 || cs.Solved != cs.Count {
		t.Fatalf("unconverged components were reused from cache: %+v", cs)
	}
	if res.Output.PSL.Converged {
		t.Fatal("re-solve fabricated convergence from cached unconverged state")
	}
}
