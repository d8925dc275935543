package tecore_test

import (
	"fmt"
	"testing"

	tecore "repro"
	"repro/internal/translate"
)

// The component-incremental repair read-out's contract: after any
// sequence of fact adds, removes and solves, a component-decomposed
// incremental session's Outcome — kept/removed/derived facts,
// Explanations, conflict clusters, per-constraint violation counts —
// is identical to a fresh whole-graph repair.Resolve over the same live
// graph, at parallelism 1 and N. The fresh comparator is the
// independent oracle (wholeNetworkReference: a fresh grounder,
// cutting-plane inference and the whole-graph read-out); the
// incremental side re-repairs only the components each delta dirtied
// and replays the rest from the repair cache. (On PSL output the same
// contract is checked on identical solver output by
// internal/core:TestComponentRepairByteIdenticalPSL.)

// TestRepairComponentMatchesWholeGraphMLNExact: both sides solve
// exactly, so the unique MAP optimum leaves no tie-breaking slack and
// the read-outs must match to the last explanation.
func TestRepairComponentMatchesWholeGraphMLNExact(t *testing.T) {
	pool := componentPool(4, 3, 113)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			incOpts := tecore.SolveOptions{
				Solver: tecore.SolverMLN, Parallelism: par}
			runVsOracle(t, componentProgram, pool, incOpts, incOpts, 127, 12, 17)
		})
	}
}

// TestRepairComponentMatchesWholeGraphMLNThreshold exercises the
// derived-fact threshold split: cached repair units embed the
// threshold-filtered classification, so replaying them across deltas
// must still match a fresh whole-graph read-out under the same
// threshold.
func TestRepairComponentMatchesWholeGraphMLNThreshold(t *testing.T) {
	pool := componentPool(4, 3, 131)
	incOpts := tecore.SolveOptions{
		Solver: tecore.SolverMLN, Threshold: 0.55}
	runVsOracle(t, componentProgram, pool, incOpts, incOpts, 137, 10, 17)
}

// TestRepairCacheReuse checks the incremental contract the repair cache
// exists for: after a warm solve, a single-fact delta re-repairs only
// the dirtied component and replays every other cached read-out. A
// greedy solve reads out through the same component cache: the kernel
// switch drops it once, and an unchanged re-solve replays it all.
func TestRepairCacheReuse(t *testing.T) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{Clusters: 20, ClusterSize: 5, Seed: 7})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	probe := tecore.NewQuad("player/00003", "playsFor", "club/00003/0/probe",
		tecore.MustInterval(1991, 1993), 0.55)

	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Stats.Repair
	if rs == nil || rs.Mode != tecore.RepairComponents {
		t.Fatalf("a default MLN solve must use the component repair mode: %+v", rs)
	}
	if rs.Repaired != rs.Components || rs.Reused != 0 {
		t.Fatalf("cold solve should repair every component: %+v", rs)
	}
	if err := s.AddFact(probe); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	rs = res.Stats.Repair
	if rs.Reused == 0 || rs.Reused < rs.Components-3 {
		t.Errorf("delta re-repaired more than its component: %d reused of %d", rs.Reused, rs.Components)
	}
	if rs.Repaired == 0 {
		t.Errorf("the dirtied component was not re-repaired: %+v", rs)
	}

	opts.Solver = translate.SolverGreedy
	res, err = s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	rs = res.Stats.Repair
	if rs.Mode != tecore.RepairComponents || rs.Repaired != rs.Components || rs.Reused != 0 {
		t.Fatalf("a kernel switch must re-repair every component: %+v", rs)
	}
	if os := res.Stats.Outcome; os.Mode != tecore.OutcomeLive || res.Delta == nil || res.Delta.AddedKept.Len() != res.Stats.KeptFacts {
		t.Fatalf("greedy solve must patch the live outcome, reporting the full state as added: %+v", os)
	}
	res, err = s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.Stats.Repair; rs.Repaired != 0 || rs.Reused != rs.Components {
		t.Fatalf("an unchanged greedy re-solve should replay every cached read-out: %+v", rs)
	}
	if !res.Delta.Empty() {
		t.Fatalf("an unchanged greedy re-solve changed the outcome: %+v", res.Delta)
	}
}

// TestRepairCacheInvalidatedByOptions re-solves an unchanged graph
// under a different derived-fact threshold and a different solver:
// cached read-outs embed both, so neither re-solve may reuse them,
// while a same-options re-solve replays everything.
func TestRepairCacheInvalidatedByOptions(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadProgramText(componentProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range componentPool(4, 3, 151) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(solver tecore.Solver, threshold float64) tecore.SolveOptions {
		return tecore.SolveOptions{Solver: solver, Threshold: threshold}
	}
	if _, err := s.Solve(mk(tecore.SolverMLN, 0)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(mk(tecore.SolverMLN, 0)) // same options, no delta: full replay
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.Stats.Repair; rs.Reused != rs.Components || rs.Repaired != 0 {
		t.Fatalf("same-options re-solve should replay every cached read-out: %+v", rs)
	}
	res, err = s.Solve(mk(tecore.SolverMLN, 0.7)) // threshold change: cache must drop
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.Stats.Repair; rs.Reused != 0 || rs.Repaired != rs.Components {
		t.Fatalf("threshold change must invalidate the repair cache: %+v", rs)
	}
	res, err = s.Solve(mk(tecore.SolverPSL, 0.7)) // solver switch: confidences change source
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.Stats.Repair; rs.Reused != 0 || rs.Repaired != rs.Components {
		t.Fatalf("solver switch must invalidate the repair cache: %+v", rs)
	}
}
