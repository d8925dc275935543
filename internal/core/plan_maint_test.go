package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// The maintained solve plan's contract: after every incremental solve,
// the session planner's delta-patched plan must hold the same set of
// listings — each component's key, generation and atoms in canonical
// order, with the same local numbering, in whatever list order — as a
// fresh engine.NewPlan over the same engine state, and the Resolution
// produced through it must equal
// the one a fresh session loaded to the same store state (whose first
// solve builds its plan from scratch) produces. These tests drive
// randomized add/remove/solve schedules (single-component dirtying,
// component merges via bridges, splits via retraction, retract-then-
// revive, no-delta re-solves) at parallelism 1 and N and check both
// properties at every step.

// checkPlanMatchesFresh compares the session's maintained plan against
// a from-scratch NewPlan over the same engine state: the same listings
// by component key, the same local numbering, and a partition of the
// live atoms (see checkPartition).
func checkPlanMatchesFresh(t *testing.T, s *Session, step int) {
	t.Helper()
	eng := s.engine
	if eng == nil || eng.planner == nil {
		t.Fatalf("step %d: session kept no maintained planner", step)
	}
	checkPartition(t, eng.planner, eng.g.Atoms(), step)
	plan := eng.planner.Plan()
	fresh := engine.NewPlan(eng.g.Atoms(), eng.cs)
	if got, want := listings(plan.Comps), listings(fresh.Comps); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: maintained Comps diverged\nmaintained: %+v\nfresh:      %+v", step, got, want)
	}
	for _, c := range plan.Comps {
		for li, a := range c.Atoms {
			if got, want := plan.Local(a), fresh.Local(a); got != want || got != int32(li) {
				t.Fatalf("step %d: Local(%d) = %d, fresh %d, position %d", step, a, got, want, li)
			}
		}
	}
}

// listings keys a component list by component key.
func listings(comps []ground.Component) map[ground.AtomID]ground.Component {
	m := make(map[ground.AtomID]ground.Component, len(comps))
	for _, c := range comps {
		m[c.Key] = c
	}
	return m
}

// sameListing reports whether two listings agree on key, generation
// and atoms.
func sameListing(a, b ground.Component) bool {
	return a.Key == b.Key && a.Gen == b.Gen && slices.Equal(a.Atoms, b.Atoms)
}

// checkPartition asserts that the planner's plan lists every live atom
// exactly once and no retracted one, and that each listed key's slot
// maps back to where it is listed.
func checkPartition(t *testing.T, pl *engine.Planner, atoms *ground.AtomTable, step int) {
	t.Helper()
	listed := make([]int, atoms.Len())
	for i, c := range pl.Plan().Comps {
		if got := pl.Slot(c.Key); got != i {
			t.Fatalf("step %d: component %d listed at slot %d, its slot says %d", step, c.Key, i, got)
		}
		for _, a := range c.Atoms {
			listed[a]++
		}
	}
	for a, n := range listed {
		want := 1
		if atoms.IsRetracted(ground.AtomID(a)) {
			want = 0
		}
		if n != want {
			t.Fatalf("step %d: atom %d listed %d times, want %d", step, a, n, want)
		}
	}
}

// TestPlannerSyncTouchesOnlyChurn is the maintained plan's O(churn)
// gate. Random toggles over a bridged pool merge, split, retract and
// revive components; after every maintained sync the slots of Comps
// whose listing changed number at most the components the sync replaced
// plus those it re-listed, and after every sync each listed key's slot
// maps back to it and every live atom is listed exactly once. A splice
// that keeps the list sorted shifts every slot after its first
// insertion and fails here.
func TestPlannerSyncTouchesOnlyChurn(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(24, 3)
	rng := rand.New(rand.NewSource(5))
	live := make([]bool, len(pool))
	toggle := func(i int) {
		t.Helper()
		if live[i] = !live[i]; !live[i] {
			if !s.RemoveFact(pool[i]) {
				t.Fatalf("RemoveFact: %v was not live", pool[i])
			}
		} else if err := s.AddFact(pool[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pool {
		if rng.Intn(3) > 0 {
			toggle(i)
		}
	}
	if _, err := s.Solve(SolveOptions{Solver: translate.SolverMLN, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	eng := s.engine
	pl := eng.planner
	var shrank, grew, retired, maintained int
	for step := 0; step < 300; step++ {
		for m := rng.Intn(3) + 1; m > 0; m-- {
			toggle(rng.Intn(len(pool)))
		}
		if err := s.syncEngine(eng, 1, s.st.DeltaSince(eng.epoch)); err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(pl.Plan().Comps)
		p, ps := pl.Sync(eng.g.Atoms(), eng.cs)
		checkPartition(t, pl, eng.g.Atoms(), step)
		if ps.Mode != "maintained" {
			continue
		}
		maintained++
		old, now := listings(before), listings(p.Comps)
		churn := 0
		for key, c := range old {
			if n, ok := now[key]; !ok || !sameListing(c, n) {
				churn++ // replaced
			}
		}
		for key, c := range now {
			if o, ok := old[key]; !ok || !sameListing(c, o) {
				churn++ // re-listed
			}
		}
		changed := 0
		for i := range p.Comps {
			if i >= len(before) || !sameListing(before[i], p.Comps[i]) {
				changed++
			}
		}
		if changed > churn {
			t.Fatalf("step %d: %d slots changed for %d replaced and re-listed components (%+v)", step, changed, churn, ps)
		}
		switch {
		case len(p.Comps) < len(before):
			shrank++
		case len(p.Comps) > len(before):
			grew++
		}
		retired += ps.DroppedComponents
	}
	t.Logf("%d maintained syncs: %d shrank the partition, %d grew it, %d keys retired", maintained, shrank, grew, retired)
	if maintained < 250 || shrank == 0 || grew == 0 || retired == 0 {
		t.Fatalf("schedule lost its churn: %d maintained syncs, %d shrank, %d grew, %d keys retired", maintained, shrank, grew, retired)
	}
}

// canonResolution is the part of a Resolution two solves of the same
// state must agree on, with the lists collected into slices the
// comparisons can rewrite.
type canonResolution struct {
	Stats                   repair.Stats
	Kept, Removed, Inferred []repair.Fact
	Clusters                []repair.Cluster
}

// canonOutcome strips the stats that legitimately differ between two
// solves of the same state (timings, plan mode, cache reuse) so the rest
// of the Outcome can be compared bitwise. The component partition's
// shape — Count, Largest, SizeHistogram — is path-independent and stays.
func canonOutcome(r *Resolution) canonResolution {
	st := r.Stats
	st.Runtime = 0
	st.Plan = nil
	st.Repair = nil
	st.Outcome = nil
	st.Ground = nil
	if cs := st.Components; cs != nil {
		st.Components = &ground.ComponentStats{Count: cs.Count, Largest: cs.Largest, SizeHistogram: cs.SizeHistogram}
	}
	return canonResolution{
		Stats:    st,
		Kept:     collect(r.Kept.Each),
		Removed:  collect(r.Removed.Each),
		Inferred: collect(r.Inferred.Each),
		Clusters: collect(r.Clusters.Each),
	}
}

// collect gathers a List's elements through its Each method.
func collect[T any](each func(func(T) bool)) []T {
	var out []T
	each(func(x T) bool {
		out = append(out, x)
		return true
	})
	return out
}

// freshResolution solves a brand-new session loaded with s's program
// and current store state: nothing maintained, every stage from scratch.
func freshResolution(t *testing.T, s *Session, opts SolveOptions) *Resolution {
	t.Helper()
	fresh := NewSession()
	for _, r := range s.Program().Rules {
		if err := fresh.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.LoadGraph(s.Store().Graph()); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.Solve(opts)
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	if ps := res.Stats.Plan; ps == nil || ps.Mode != "rebuilt" {
		t.Fatalf("fresh session did not build its plan from scratch: %+v", ps)
	}
	return res
}

// takeConfidences zeroes every fact confidence of a canonDurable
// resolution and returns them keyed by statement, for solvers whose soft
// values are compared by tolerance.
func takeConfidences(r canonResolution) (canonResolution, map[rdf.FactKey]float64) {
	conf := map[rdf.FactKey]float64{}
	take := func(fs []repair.Fact) []repair.Fact {
		out := append([]repair.Fact(nil), fs...)
		for i := range out {
			conf[out[i].Quad.Fact()] = out[i].Quad.Confidence
			out[i].Quad.Confidence = 0
		}
		return out
	}
	r.Kept, r.Removed, r.Inferred = take(r.Kept), take(r.Removed), take(r.Inferred)
	return r, conf
}

func testPlanMaintenanceDifferential(t *testing.T, solver translate.Solver, parallelism int, seed int64) {
	t.Helper()
	maint := NewSession()
	if err := maint.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(6, 3)
	rng := rand.New(rand.NewSource(seed))
	live := make([]bool, len(pool))

	// Start from a partial load so early deltas both insert and remove.
	for i := range pool {
		if i%2 == 0 {
			live[i] = true
			if err := maint.AddFact(pool[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	opts := SolveOptions{Solver: solver, Parallelism: parallelism}
	for step := 0; step < 30; step++ {
		// 1–3 mutations per step: adds, removes, retract-then-revive.
		for m := rng.Intn(3) + 1; m > 0; m-- {
			idx := rng.Intn(len(pool))
			if live[idx] && rng.Intn(2) == 0 {
				live[idx] = false
				maint.RemoveFact(pool[idx])
			} else {
				live[idx] = true
				if err := maint.AddFact(pool[idx]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if step%7 == 3 {
			// No-delta re-solve: the empty-delta fast path.
			res, err := maint.Solve(opts)
			if err != nil {
				t.Fatalf("step %d (no-delta): %v", step, err)
			}
			if res.Stats.Plan == nil || res.Stats.Plan.Mode != "maintained" {
				t.Fatalf("step %d: no-delta solve not maintained: %+v", step, res.Stats.Plan)
			}
		}
		res, err := maint.Solve(opts)
		if err != nil {
			t.Fatalf("step %d (maintained): %v", step, err)
		}
		if step > 0 {
			if ps := res.Stats.Plan; ps == nil || ps.Mode != "maintained" {
				t.Fatalf("step %d: incremental solve did not maintain the plan: %+v", step, ps)
			}
		}
		checkPlanMatchesFresh(t, maint, step)
		checkResolutionMatchesFresh(t, maint, res, opts, step)
	}
}

// checkResolutionMatchesFresh compares res, a solve of s, with a fresh
// session's solve of the same state. A fresh session numbers its atoms
// differently, so the comparison is the restart suite's: keyed by
// statement, not by atom id.
func checkResolutionMatchesFresh(t *testing.T, s *Session, res *Resolution, opts SolveOptions, step int) {
	t.Helper()
	fresh := freshResolution(t, s, opts)
	a, b := canonDurable(res), canonDurable(fresh)
	if opts.Solver == translate.SolverPSL {
		// Warm-started ADMM reaches the same optimum only to within
		// its residual tolerance; everything discrete must still match.
		var ca, cb map[rdf.FactKey]float64
		a, ca = takeConfidences(a)
		b, cb = takeConfidences(b)
		for k, v := range ca {
			if d := v - cb[k]; d > 5e-3 || d < -5e-3 {
				t.Fatalf("step %d: %v confidence %g, fresh session %g", step, k, v, cb[k])
			}
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("step %d: maintained-plan Resolution diverged from a fresh session\nmaintained: %+v\nfresh:      %+v",
			step, a, b)
	}
}

// TestPlanMaintenanceLargeDelta: one batch retracts over 30 % of a
// clustered session's facts, a second re-adds them, and the planner
// patches both like any other delta. After each batch's solve the
// maintained plan equals a fresh NewPlan, the solve ran under the
// change set, and its answers equal a fresh session's — under MLN, PSL
// and greedy at Parallelism 1 and 2. equivProgram's inference rule
// (playsFor ⇒ worksFor) makes the re-add revive derived atoms as well
// as evidence.
func TestPlanMaintenanceLargeDelta(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 60, ClusterSize: 5, BridgeRate: 0.2, Seed: 3})
	var batch []rdf.Quad
	for i, q := range ds.Graph {
		if i%3 == 0 {
			batch = append(batch, q)
		}
	}
	if len(batch)*10 < len(ds.Graph)*3 {
		t.Fatalf("batch of %d facts is under 30 %% of %d", len(batch), len(ds.Graph))
	}
	for _, solver := range []translate.Solver{translate.SolverMLN, translate.SolverPSL, translate.SolverGreedy} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/par%d", solver, par), func(t *testing.T) {
				s := NewSession()
				if err := s.LoadProgramText(kgen.ClusteredProgram + equivProgram); err != nil {
					t.Fatal(err)
				}
				if err := s.LoadGraph(ds.Graph); err != nil {
					t.Fatal(err)
				}
				opts := SolveOptions{Solver: solver, Parallelism: par}
				if _, err := s.Solve(opts); err != nil {
					t.Fatal(err)
				}
				for step, apply := range []func(rdf.Quad){
					func(q rdf.Quad) {
						if !s.RemoveFact(q) {
							t.Fatalf("%v was not live", q)
						}
					},
					func(q rdf.Quad) {
						if err := s.AddFact(q); err != nil {
							t.Fatal(err)
						}
					},
				} {
					for _, q := range batch {
						apply(q)
					}
					res, err := s.Solve(opts)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if ps := res.Stats.Plan; ps.Mode != "maintained" || !res.Output.TruthDelta() {
						t.Fatalf("step %d: plan %+v, TruthDelta %v; want a maintained plan and a change-set solve",
							step, ps, res.Output.TruthDelta())
					}
					checkPlanMatchesFresh(t, s, step)
					checkResolutionMatchesFresh(t, s, res, opts, step)
				}
			})
		}
	}
}

func TestPlanMaintenanceDifferentialMLN(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverMLN, 1, 11)
}

func TestPlanMaintenanceDifferentialMLNParallel(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverMLN, 0, 23)
}

func TestPlanMaintenanceDifferentialPSL(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverPSL, 1, 37)
}

func TestPlanMaintenanceDifferentialPSLParallel(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverPSL, 0, 41)
}

// TestPlanMaintenanceMergeSplitOneDelta drives a component merge AND a
// split through a single delta: one bridge fact joining two subjects'
// conflict chains is retracted while another bridge between two other
// subjects is added, all consumed by one solve.
func TestPlanMaintenanceMergeSplitOneDelta(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivPool(4, 3) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	// The cross-subject bridges of equivPool: subject s coaches Club_{s-1}_0.
	bridge := func(a int) rdf.Quad {
		return rdf.NewQuad(fmt.Sprintf("P%d", a+1), "coach", fmt.Sprintf("Club_%d_0", a), temporal.MustNew(2000, 2002), 0.55)
	}
	if !s.RemoveFact(bridge(0)) {
		t.Fatal("bridge retraction missed")
	}
	if err := s.AddFact(rdf.NewQuad("P3", "coach", "Club_0_1", temporal.MustNew(2001, 2003), 0.5)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan.Mode != "maintained" {
		t.Fatalf("merge+split delta fell off the maintained path: %+v", res.Stats.Plan)
	}
	if res.Stats.Plan.PatchedComponents == 0 {
		t.Fatalf("merge+split delta patched no components: %+v", res.Stats.Plan)
	}
	checkPlanMatchesFresh(t, s, 0)
}

// TestPlanMaintenancePatchOutOfKeyOrder patches two components whose
// key order (smallest atom id) is the reverse of their canonical order
// in one delta. Retracting a fact before the first solve and reviving it
// afterwards gives it the earliest fact id but the latest atom id, so
// its component ranks first canonically under the larger key; growing
// both components then re-lists both in one splice, which must drop
// both old listings (a sorted-list merge once kept the first one stale,
// leaving its atom listed in two components — checkPartition's
// exactly-once assertion catches that).
func TestPlanMaintenancePatchOutOfKeyOrder(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	coach := func(subj, club string, from, to int64) rdf.Quad {
		return rdf.NewQuad(subj, "coach", club, temporal.MustNew(from, to), 0.7)
	}
	early := coach("P0", "A", 2000, 2004)
	add := func(q rdf.Quad) {
		t.Helper()
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	add(early)
	add(coach("P1", "B", 2000, 2004))
	for i := 2; i < 12; i++ { // singletons: keep the delta small next to the table
		add(coach(fmt.Sprintf("P%d", i), fmt.Sprintf("Club%d", i), 2000, 2004))
	}
	if !s.RemoveFact(early) {
		t.Fatal("retraction missed")
	}
	opts := SolveOptions{Solver: translate.SolverMLN}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	add(early)
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesFresh(t, s, 0)

	add(coach("P0", "C", 2001, 2003))
	add(coach("P1", "D", 2001, 2003))
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ps := res.Stats.Plan; ps.Mode != "maintained" || ps.PatchedComponents != 2 {
		t.Fatalf("two-component delta: %+v", ps)
	}
	checkPlanMatchesFresh(t, s, 1)
}

// TestPlanMaintenanceRetractRevive retracts a fact, solves, re-adds the
// identical fact (reviving the atom under its stable id) and solves
// again; the maintained plan must track both transitions.
func TestPlanMaintenanceRetractRevive(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(3, 3)
	for _, q := range pool {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	target := pool[1]
	if !s.RemoveFact(target) {
		t.Fatal("retraction missed")
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesFresh(t, s, 0)
	if err := s.AddFact(target); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan.Mode != "maintained" {
		t.Fatalf("revive fell off the maintained path: %+v", res.Stats.Plan)
	}
	checkPlanMatchesFresh(t, s, 1)

	// Retract-then-revive within ONE delta: no net order change.
	if !s.RemoveFact(target) {
		t.Fatal("second retraction missed")
	}
	if err := s.AddFact(target); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesFresh(t, s, 2)
}

// TestPlanMaintenanceEmptyDelta re-solves with no store delta: the
// planner must report a maintained plan with zero splice work.
func TestPlanMaintenanceEmptyDelta(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivPool(3, 2) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Stats.Plan
	if ps.Mode != "maintained" || ps.InsertedAtoms != 0 || ps.RemovedAtoms != 0 ||
		ps.PatchedComponents != 0 || ps.DroppedComponents != 0 {
		t.Fatalf("empty delta did plan work: %+v", ps)
	}
	checkPlanMatchesFresh(t, s, 0)
}
