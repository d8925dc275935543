package tecore_test

import (
	"fmt"
	"math/rand"
	"testing"

	tecore "repro"
)

// The component-decomposed solver's contract: partitioning the ground
// network into independent conflict components and solving them
// separately — with per-component engines, in parallel, and with
// per-component solution caching on the incremental path — produces the
// same Resolution as solving the whole network at once. These tests
// drive randomized add/remove/solve sequences whose deltas merge
// components (bridge facts connecting two subjects' conflict chains) and
// split them (removing chain or bridge facts), comparing against an
// independent whole-network reference and the from-scratch component
// path at parallelism 1 and N.
//
// The whole-network ("monolithic") reference for MLN is
// wholeNetworkReference: a fresh grounder, cutting-plane inference (one
// exact MaxSAT over the whole network per round) and the whole-graph
// repair.Resolve read-out share no partition, cache or kernel with the
// component path, and never run Session.Solve. PSL has no second back
// end; its "monolithic = one component" oracle lives in internal/psl
// (TestComponentsMatchOneComponent).

// componentProgram has an inference rule (so components contain derived
// atoms), a per-subject disjointness chain (intra-component conflicts)
// and a shared-club constraint that lets bridge facts merge the
// components of two subjects.
const componentProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
star: quad(x, coach, y, t) ^ quad(z, coach, y, t') ^ x != z -> disjoint(t, t') w = inf
`

// componentPool builds per-subject conflict chains (boundary-overlapping
// coach spells at subject-unique clubs), playsFor facts feeding the
// inference rule, and cross-subject bridge facts (a subject coaching the
// previous subject's first club at overlapping times). Confidences are
// full-precision randoms, so MAP optima are unique and the exact engine
// must return identical assignments on any decomposition.
func componentPool(subjects, spells int, seed int64) []tecore.Quad {
	rng := rand.New(rand.NewSource(seed))
	conf := func() float64 { return 0.5 + 0.45*rng.Float64() }
	var pool []tecore.Quad
	for s := 0; s < subjects; s++ {
		subj := fmt.Sprintf("P%d", s)
		start := int64(2000)
		for c := 0; c < spells; c++ {
			club := fmt.Sprintf("Club_%d_%d", s, c)
			end := start + 2 + int64(rng.Intn(3))
			pool = append(pool, tecore.NewQuad(subj, "coach", club, tecore.MustInterval(start, end), conf()))
			start = end // boundary overlap chains the component
		}
		pool = append(pool,
			tecore.NewQuad(subj, "playsFor", fmt.Sprintf("Club_%d_0", s), tecore.MustInterval(1990, 1995), conf()))
		if s > 0 {
			// Bridge: subject s coaches subject s-1's first club at a
			// time overlapping both first spells — its star grounding
			// merges the two subjects' components.
			pool = append(pool,
				tecore.NewQuad(subj, "coach", fmt.Sprintf("Club_%d_0", s-1), tecore.MustInterval(2000, 2002), conf()))
		}
	}
	return pool
}

// localClique is n coach spells of one subject at distinct clubs, every
// two overlapping: c2 grounds them into one clique of n atoms. From 18
// atoms its elimination tables exceed the bucket-elimination engine's
// budget, so the MLN kernel solves a clique of 18 to 48 atoms by
// branch-and-bound and a larger one by local search.
func localClique(subject string, n int, seed int64) []tecore.Quad {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tecore.Quad, n)
	for k := range out {
		out[k] = tecore.NewQuad(subject, "coach", fmt.Sprintf("Clique_%s_%d", subject, k),
			tecore.MustInterval(2000+int64(k%3), 2010), 0.55+0.4*rng.Float64())
	}
	return out
}

// TestComponentMatchesMonolithicMLNExact: randomized add/remove/solve
// sequences; at each step the component-decomposed incremental session
// must return a Resolution byte-identical to the whole-network
// cutting-plane oracle over the same live graph. Both paths solve
// exactly, so the unique optimum leaves no tie-breaking slack.
func TestComponentMatchesMonolithicMLNExact(t *testing.T) {
	pool := componentPool(4, 3, 41)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			incOpts := tecore.SolveOptions{
				Solver: tecore.SolverMLN, Parallelism: par}
			runVsOracle(t, componentProgram, pool, incOpts, incOpts, 43, 12, 17)
		})
	}
}

// TestComponentMatchesMonolithicMLNCold compares cold component solves
// (ColdStart, so no cache or warm state) against the whole-network exact
// cutting-plane oracle across the same mutation stream.
func TestComponentMatchesMonolithicMLNCold(t *testing.T) {
	pool := componentPool(3, 3, 59)
	incOpts := tecore.SolveOptions{
		Solver: tecore.SolverMLN, ColdStart: true}
	runVsOracle(t, componentProgram, pool, incOpts, incOpts, 61, 10, 17)
}

// TestComponentIncrementalMatchesFreshComponent: the cached incremental
// path (dirty components re-solved, clean ones reused, warm starts on)
// must be byte-identical to a fresh component-decomposed solve — the
// exact engine guarantees it even through the solution cache.
func TestComponentIncrementalMatchesFreshComponent(t *testing.T) {
	pool := componentPool(4, 3, 73)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("mln-exact/parallel=%d", par), func(t *testing.T) {
			opts := tecore.SolveOptions{
				Solver: tecore.SolverMLN, Parallelism: par}
			runTwoWaysProgram(t, componentProgram, pool, opts, opts, 79, 12, 17)
		})
	}
	// Through the local-search engine, cold: the canonical per-component
	// subproblems are byte-identical on both sides, so even the random
	// walk reproduces exactly. The pool's components go to bucket
	// elimination, and a 50-atom clique, live throughout, to local
	// search.
	t.Run("mln-local-cold", func(t *testing.T) {
		opts := tecore.SolveOptions{Solver: tecore.SolverMLN, ColdStart: true}
		runTwoWaysWithBase(t, componentProgram, localClique("Q", 50, 83), componentPool(4, 4, 83), opts, opts, 89, 8, 17, requireLocal)
	})
	t.Run("psl-cold", func(t *testing.T) {
		opts := tecore.SolveOptions{Solver: tecore.SolverPSL, ColdStart: true}
		runTwoWaysProgram(t, componentProgram, componentPool(3, 3, 97), opts, opts, 101, 8, 17)
	})
}

// TestComponentParallelismDeterminism drives two component-decomposed
// incremental sessions through the same mutation stream at parallelism
// 1 and N: Resolutions and raw truth vectors must be identical at every
// step, cached components included, for both backends and every MLN
// engine (elimination for the pool's components, branch-and-bound for a
// 20-atom clique too wide for elimination and local search for a
// 50-atom one, both live throughout).
func TestComponentParallelismDeterminism(t *testing.T) {
	for _, solver := range []tecore.Solver{tecore.SolverMLN, tecore.SolverPSL} {
		t.Run(solver.String(), func(t *testing.T) {
			pool := componentPool(5, 4, 103)
			mkSession := func() *tecore.Session {
				s := tecore.NewSession()
				if err := s.LoadProgramText(componentProgram); err != nil {
					t.Fatal(err)
				}
				if err := s.LoadGraph(append(localClique("Q", 50, 103), localClique("R", 20, 103)...)); err != nil {
					t.Fatal(err)
				}
				return s
			}
			engines := map[string]int{}
			seq, par := mkSession(), mkSession()
			rng := rand.New(rand.NewSource(107))
			live := make(map[int]bool)
			apply := func(s *tecore.Session, i int, add bool) {
				if add {
					if err := s.AddFact(pool[i]); err != nil {
						t.Fatal(err)
					}
				} else {
					s.RemoveFact(pool[i])
				}
			}
			for i := range pool {
				if i%2 == 0 {
					apply(seq, i, true)
					apply(par, i, true)
					live[i] = true
				}
			}
			for step := 0; step < 8; step++ {
				for m := 0; m < 1+rng.Intn(3); m++ {
					i := rng.Intn(len(pool))
					add := !live[i] || rng.Intn(2) == 0
					apply(seq, i, add)
					apply(par, i, add)
					live[i] = add
				}
				mk := func(parallelism int) tecore.SolveOptions {
					return tecore.SolveOptions{Solver: solver, Parallelism: parallelism}
				}
				a, err := seq.Solve(mk(1))
				if err != nil {
					t.Fatalf("step %d: parallel=1: %v", step, err)
				}
				b, err := par.Solve(mk(8))
				if err != nil {
					t.Fatalf("step %d: parallel=8: %v", step, err)
				}
				if ca, cb := canonResolution(a, 17), canonResolution(b, 17); ca != cb {
					t.Fatalf("step %d: resolution differs between parallelism 1 and 8\n1:\n%s\n8:\n%s", step, ca, cb)
				}
				for e, n := range a.Stats.Components.Engines {
					engines[e] += n
				}
				if len(a.Output.Truth) != len(b.Output.Truth) {
					t.Fatalf("step %d: truth lengths differ", step)
				}
				for i := range a.Output.Truth {
					if a.Output.Truth[i] != b.Output.Truth[i] {
						t.Fatalf("step %d: truth[%d] differs between parallelism 1 and 8", step, i)
					}
				}
			}
			if solver == tecore.SolverMLN && (engines["exact"] == 0 || engines["local"] == 0) {
				t.Fatalf("MLN engine tallies over the run: %v, want exact and local components", engines)
			}
		})
	}
}

// TestComponentStatsShape solves a clustered dataset and sanity-checks
// the reported decomposition: roughly one multi-atom component per
// cluster, a populated histogram and engine tallies, and full coverage
// of the input facts.
func TestComponentStatsShape(t *testing.T) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{Clusters: 25, ClusterSize: 6, BridgeRate: 0.2, Seed: 5})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Stats.Components
	if cs == nil {
		t.Fatal("no component stats")
	}
	if cs.Count < 15 || cs.Count > 25 {
		t.Errorf("component count = %d, want ≈ clusters minus bridge merges (25 - ~5)", cs.Count)
	}
	if cs.Largest < 6 {
		t.Errorf("largest component = %d atoms, want ≥ cluster size", cs.Largest)
	}
	if cs.Solved != cs.Count || cs.Reused != 0 {
		t.Errorf("cold solve should solve every component: %+v", cs)
	}
	if len(cs.SizeHistogram) == 0 || len(cs.Engines) == 0 {
		t.Errorf("histogram/engine tallies missing: %+v", cs)
	}
	if got := res.Stats.KeptFacts + res.Stats.RemovedFacts; got != len(ds.Graph) {
		t.Errorf("kept+removed = %d, want %d input facts", got, len(ds.Graph))
	}
}

// TestComponentCacheInvalidatedByOptions re-solves an unchanged graph:
// a same-options re-solve reuses every cached component, while a
// ColdStart re-solve must drop the cache and solve every component
// again.
func TestComponentCacheInvalidatedByOptions(t *testing.T) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{Clusters: 10, ClusterSize: 5, Seed: 13})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts) // same options, no delta: full reuse
	if err != nil {
		t.Fatal(err)
	}
	if cs := res.Stats.Components; cs.Reused != cs.Count {
		t.Fatalf("same-options re-solve should reuse everything: %+v", cs)
	}
	opts.ColdStart = true
	res, err = s.Solve(opts) // cold start: caches must drop
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Stats.Components
	if cs.Reused != 0 || cs.Solved != cs.Count {
		t.Fatalf("a cold start must invalidate the component cache: %+v", cs)
	}
	if cs.Engines["exact"] == 0 {
		t.Fatalf("re-solve did not run the exact engine: %+v", cs)
	}
}

// TestComponentCacheReuse checks the incremental contract the layer
// exists for: after a warm solve, a single-fact delta re-solves only
// the dirtied component and reuses every other cached solution.
func TestComponentCacheReuse(t *testing.T) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{Clusters: 20, ClusterSize: 5, Seed: 7})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	// Touch one cluster.
	probe := tecore.NewQuad("player/00003", "playsFor", "club/00003/0/probe",
		tecore.MustInterval(1991, 1993), 0.55)
	if err := s.AddFact(probe); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Stats.Components
	if !res.Incremental || cs == nil {
		t.Fatalf("expected incremental component solve, got %+v", res.Stats)
	}
	if cs.Reused == 0 || cs.Reused < cs.Count-3 {
		t.Errorf("delta dirtied more than its component: %d reused of %d", cs.Reused, cs.Count)
	}
	if cs.Solved == 0 {
		t.Errorf("the dirtied component was not re-solved: %+v", cs)
	}
}
