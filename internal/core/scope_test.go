package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// The plan consumers' one pass, seen from the session: the running
// aggregates a chain of change-set passes maintains must equal what a
// fresh session folds from zero whatever solves ran in between, and the
// change-set scope must actually engage on consecutive updates.

// checkAggregatesMatchFresh compares the MLN solve-level aggregates of
// res — the component partition's shape, hard feasibility, per-rule
// violation counts and the cost, bit for bit — against a fresh session
// over s's current store state.
func checkAggregatesMatchFresh(t *testing.T, s *Session, res *Resolution, opts SolveOptions, step string) *Resolution {
	t.Helper()
	fresh := checkComponentsMatchFresh(t, s, res, opts, step)
	gm, wm := res.Output.MLN, fresh.Output.MLN
	if gm.HardSatisfied != wm.HardSatisfied || !reflect.DeepEqual(gm.RuleViolations, wm.RuleViolations) {
		t.Fatalf("%s: hard-satisfied %v violations %v, fresh session %v %v",
			step, gm.HardSatisfied, gm.RuleViolations, wm.HardSatisfied, wm.RuleViolations)
	}
	if math.Float64bits(gm.Cost) != math.Float64bits(wm.Cost) {
		t.Fatalf("%s: cost %v, fresh session %v", step, gm.Cost, wm.Cost)
	}
	return fresh
}

// checkComponentsMatchFresh compares the maintained component
// statistics of res — the partition's shape, and a solved/reused split
// that accounts for every component — against a fresh session over s's
// current store state, returning the fresh resolution.
func checkComponentsMatchFresh(t *testing.T, s *Session, res *Resolution, opts SolveOptions, step string) *Resolution {
	t.Helper()
	fresh := freshResolution(t, s, opts)
	got, want := res.Stats.Components, fresh.Stats.Components
	if got.Count != want.Count || got.Largest != want.Largest || !reflect.DeepEqual(got.SizeHistogram, want.SizeHistogram) {
		t.Fatalf("%s: components %d (largest %d, %v), fresh session %d (largest %d, %v)",
			step, got.Count, got.Largest, got.SizeHistogram, want.Count, want.Largest, want.SizeHistogram)
	}
	if got.Solved+got.Reused != got.Count || got.Engines["cached"] != got.Reused {
		t.Fatalf("%s: solved %d + reused %d of %d components (engines %v)", step, got.Solved, got.Reused, got.Count, got.Engines)
	}
	return fresh
}

// TestSolverAlternationKeepsAggregates interleaves PSL and greedy solves
// between MLN solves on one session while bridges merge and split
// components. Each switch starts the kernel's state afresh on a plan
// that kept moving under the other kernels, and the chained passes that
// follow must keep aggregates equal to a fresh session's: a component key
// a merge retired and a later split re-creates must be counted exactly
// once. Greedy answers must match a fresh session's too.
func TestSolverAlternationKeepsAggregates(t *testing.T) {
	mlnOpts := func(par int) SolveOptions { return SolveOptions{Solver: translate.SolverMLN, Parallelism: par} }
	pslOpts := func(par int) SolveOptions { return SolveOptions{Solver: translate.SolverPSL, Parallelism: par} }
	greedyOpts := func(par int) SolveOptions { return SolveOptions{Solver: translate.SolverGreedy, Parallelism: par} }
	solve := func(t *testing.T, s *Session, opts SolveOptions, step string) *Resolution {
		t.Helper()
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		switch opts.Solver {
		case translate.SolverGreedy:
			fresh := checkAggregatesMatchFresh(t, s, res, opts, step)
			if a, b := canonDurable(res), canonDurable(fresh); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: resolution diverged from a fresh session\nsession: %+v\nfresh:   %+v", step, a, b)
			}
		case translate.SolverMLN:
			checkAggregatesMatchFresh(t, s, res, opts, step)
		default:
			checkComponentsMatchFresh(t, s, res, opts, step)
		}
		return res
	}

	// Two conflict pairs of one coach, far apart in time, and a spell
	// overlapping one fact of each: adding it merges the two components
	// (retiring the second's key), removing it splits them again.
	t.Run("bridge", func(t *testing.T) {
		s := NewSession()
		if err := s.LoadProgramText(equivProgram); err != nil {
			t.Fatal(err)
		}
		coach := func(club string, from, to int64, conf float64) rdf.Quad {
			return rdf.NewQuad("P0", "coach", club, temporal.MustNew(from, to), conf)
		}
		for _, q := range []rdf.Quad{
			coach("A", 2000, 2003, 0.9), coach("B", 2002, 2005, 0.6),
			coach("C", 2010, 2013, 0.9), coach("D", 2012, 2015, 0.6),
		} {
			if err := s.AddFact(q); err != nil {
				t.Fatal(err)
			}
		}
		bridge := coach("E", 2004, 2011, 0.55)

		if res := solve(t, s, mlnOpts(1), "initial"); res.Stats.Components.Count != 2 {
			t.Fatalf("fixture has %d components, want 2", res.Stats.Components.Count)
		}
		if err := s.AddFact(bridge); err != nil {
			t.Fatal(err)
		}
		solve(t, s, pslOpts(1), "psl over the bridge")
		if res := solve(t, s, mlnOpts(1), "mln after psl"); res.Stats.Components.Count != 1 {
			t.Fatalf("bridge merged into %d components, want 1", res.Stats.Components.Count)
		}
		if !s.RemoveFact(bridge) {
			t.Fatal("bridge retraction missed")
		}
		res := solve(t, s, mlnOpts(1), "mln after unbridge")
		if !res.Output.MLN.TruthDelta {
			t.Fatal("the split was not solved under the change-set scope; the schedule no longer exercises the chained pass")
		}
	})

	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("random/par%d", par), func(t *testing.T) {
			s := NewSession()
			if err := s.LoadProgramText(equivProgram); err != nil {
				t.Fatal(err)
			}
			// equivPool's cross-subject facts are the bridges: toggling
			// them merges and splits neighbouring subjects' components.
			pool := equivPool(6, 3)
			rng := rand.New(rand.NewSource(int64(97 + par)))
			live := make([]bool, len(pool))
			for step := 0; step < 60; step++ {
				for m := rng.Intn(3) + 1; m > 0; m-- {
					idx := rng.Intn(len(pool))
					if live[idx] {
						s.RemoveFact(pool[idx])
					} else if err := s.AddFact(pool[idx]); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					live[idx] = !live[idx]
				}
				opts := mlnOpts(par)
				switch rng.Intn(6) {
				case 0, 1:
					opts = pslOpts(par)
				case 2, 3:
					opts = greedyOpts(par)
				}
				solve(t, s, opts, fmt.Sprintf("step %d (%v)", step, opts.Solver))
			}
		})
	}
}

// scopeSession is TestDeltaScopeEngages' fixture: a clustered session of
// about 220 four-fact components, and update, which applies one
// single-fact update — a rival spell shadowing the next cluster's first
// spell (dirtying exactly that cluster's component), added on even calls
// and retracted on odd ones.
func scopeSession(t *testing.T) (s *Session, update func(), retractQuarter func()) {
	t.Helper()
	const clusters, size = 220, 4
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: clusters, ClusterSize: size, Seed: 5})
	s = NewSession()
	if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	updates := 0
	update = func() {
		t.Helper()
		c := (updates / 2) % clusters
		rival := ds.Graph[c*size]
		rival.Object = rdf.NewIRI(fmt.Sprintf("club/rival/%d", c))
		rival.Confidence = 0.4
		if updates%2 == 0 {
			if err := s.AddFact(rival); err != nil {
				t.Fatal(err)
			}
		} else if !s.RemoveFact(rival) {
			t.Fatal("rival retraction missed")
		}
		updates++
	}
	// retractQuarter retracts more than a quarter of the atoms in one
	// delta, which the planner patches like any other.
	retractQuarter = func() {
		for c := 0; c < clusters; c++ {
			s.RemoveFact(ds.Graph[c*size+size-1])
			if c < 20 {
				s.RemoveFact(ds.Graph[c*size+size-2])
			}
		}
	}
	return s, update, retractQuarter
}

// TestDeltaScopeEngages pins that consecutive single-fact updates run
// every stage under the planner's change set, on every kernel — a
// regression that silently scoped every component would pass every
// equivalence suite — solving exactly the components the plan patched,
// that each event breaking the chain (another kernel's solve, a
// ColdStart) costs exactly one all-component solve, and that a delta
// over a quarter of the atoms stays chained.
func TestDeltaScopeEngages(t *testing.T) {
	for _, tc := range []struct{ kernel, other translate.Solver }{
		{translate.SolverMLN, translate.SolverPSL},
		{translate.SolverPSL, translate.SolverMLN},
		{translate.SolverGreedy, translate.SolverMLN},
	} {
		t.Run(tc.kernel.String(), func(t *testing.T) {
			s, update, retractQuarter := scopeSession(t)
			opts := SolveOptions{Solver: tc.kernel}
			solve := func(step string, opts SolveOptions, wantDelta bool) *Resolution {
				t.Helper()
				res, err := s.Solve(opts)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if opts.Solver != tc.kernel {
					return res
				}
				if got := res.Output.TruthDelta(); got != wantDelta {
					t.Fatalf("%s: TruthDelta = %v, want %v (plan %+v)", step, got, wantDelta, res.Stats.Plan)
				}
				if c, r, o := res.Stats.Components, res.Stats.Repair, res.Stats.Outcome; wantDelta &&
					(c.Solved != res.Stats.Plan.PatchedComponents || c.Solved > 2 || r.Repaired > 2 || o.Patched > 2) {
					t.Fatalf("%s: a single-fact update solved %d (the plan patched %d), repaired %d, patched %d components; want the plan's, at most 2 each",
						step, c.Solved, res.Stats.Plan.PatchedComponents, r.Repaired, o.Patched)
				}
				return res
			}

			if res := solve("first solve", opts, false); res.Stats.Components.Count < 200 {
				t.Fatalf("fixture has %d components, want at least 200", res.Stats.Components.Count)
			}
			for i := 0; i < 12; i++ {
				update()
				solve(fmt.Sprintf("update %d", i), opts, true)
			}

			solve(tc.other.String(), SolveOptions{Solver: tc.other}, false)
			solve("first solve after "+tc.other.String(), opts, false)
			update()
			solve("update after "+tc.other.String(), opts, true)

			cold := opts
			cold.ColdStart = true
			update()
			solve("cold start", cold, false)
			update()
			solve("update after cold start", opts, true)

			retractQuarter()
			res, err := s.Solve(opts)
			if err != nil {
				t.Fatalf("large delta: %v", err)
			}
			if ps, c := res.Stats.Plan, res.Stats.Components; ps.Mode != "maintained" || !res.Output.TruthDelta() || c.Solved != ps.PatchedComponents {
				t.Fatalf("large delta: TruthDelta %v, solved %d components (plan %+v); want the plan's patched components, chained",
					res.Output.TruthDelta(), c.Solved, ps)
			}
			update()
			solve("update after the large delta", opts, true)
		})
	}
}

// TestDeltaScopeUnconvergedPSL pins ADMM's own scope rule: a component
// whose ADMM stopped short of its tolerance must be re-offered on every
// solve, and the change set does not name it, so while the cache holds
// one every solve is an all-component pass. Starved of sweeps, the
// warm-started components converge over a few solves; from then on the
// change-set scope engages.
func TestDeltaScopeUnconvergedPSL(t *testing.T) {
	s, update, _ := scopeSession(t)
	opts := SolveOptions{Solver: translate.SolverPSL}
	s.budget.pslMaxIter = 20
	converged := false
	for i := 0; i < 60 && !converged; i++ {
		if i > 0 {
			update()
		}
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if res.Output.TruthDelta() {
			t.Fatalf("solve %d ran under the change set while unconverged components were cached", i)
		}
		if c := res.Stats.Components; i > 0 && c.Solved == 0 {
			t.Fatalf("solve %d re-solved nothing although the previous solve left unconverged components", i)
		}
		converged = res.Output.PSL.Converged
		if i == 0 && converged {
			t.Fatal("20 sweeps converged every component from a cold start; the fixture exercises nothing")
		}
	}
	if !converged {
		t.Fatal("warm-started ADMM never converged within 60 solves")
	}
	update()
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.TruthDelta() {
		t.Fatal("the update after convergence did not run under the change set")
	}
}
