package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// Allocation regression gate for the maintained solve plan, joining the
// store gates from the scale work. The planner's whole point is that a
// steady-state single-fact update patches the component partition in
// place: the live-set and slot mirrors, the local map, the grouping
// scratch and the component list are all owned by the planner and
// reused across syncs. A change that reintroduces per-sync rebuilds (a
// CanonicalAtoms + Components pass, or fresh grouping scratch) fails
// here long before it shows up on the update-latency bench. The gate
// holds for a fact that only grows and shrinks one component and for a
// bridge whose toggle splits a component in two and merges it back.
func TestPlannerSyncAllocsSingleFact(t *testing.T) {
	s := NewSession()
	for _, q := range equivPool(40, 3) {
		if err := s.AddFact(q); err != nil {
			t.Fatalf("AddFact: %v", err)
		}
	}
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatalf("LoadProgramText: %v", err)
	}
	opts := SolveOptions{Solver: translate.SolverMLN, Parallelism: 1}
	if _, err := s.Solve(opts); err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	eng := s.engine
	if eng == nil || eng.planner == nil {
		t.Fatal("cold solve did not leave a maintained planner behind")
	}

	cases := []struct {
		name   string
		fact   rdf.Quad
		live   bool // the fact is live before the first toggle
		splits bool // toggling it splits and merges a component
	}{
		{"single-fact", rdf.NewQuad("P1", "coach", "Club_probe", temporal.MustNew(2000, 2002), 0.5), false, false},
		// equivPool's bridge from P20's conflict chain to P19's.
		{"split/merge", rdf.NewQuad("P20", "coach", "Club_19_0", temporal.MustNew(2000, 2002), 0.55), true, true},
	}
	for _, tc := range cases {
		// One steady-state update up to (and including) the plan sync:
		// toggle the fact, reconcile the grounder, patch the plan. The
		// solver/repair stages are not part of the gated path.
		live := tc.live
		var planMallocs, planSyncs uint64
		var ms0, ms1 runtime.MemStats
		sizes := map[int]bool{}
		step := func() {
			if live = !live; live {
				if err := s.AddFact(tc.fact); err != nil {
					t.Fatalf("AddFact: %v", err)
				}
			} else if !s.RemoveFact(tc.fact) {
				t.Fatalf("RemoveFact: %v was not live", tc.fact)
			}
			d := s.st.DeltaSince(eng.epoch)
			if err := s.syncEngine(eng, 1, d); err != nil {
				t.Fatalf("syncEngine: %v", err)
			}
			runtime.ReadMemStats(&ms0)
			_, ps := eng.planner.Sync(eng.g.Atoms(), eng.cs)
			runtime.ReadMemStats(&ms1)
			planMallocs += ms1.Mallocs - ms0.Mallocs
			planSyncs++
			if ps.Mode != "maintained" {
				t.Fatalf("%s: steady-state sync fell back to mode %q", tc.name, ps.Mode)
			}
			sizes[ps.Components] = true
		}
		// Warm both toggle directions so every scratch buffer and the
		// fact's atom/var slots reach steady-state capacity before
		// measuring.
		for i := 0; i < 6; i++ {
			step()
		}
		if splits := len(sizes) > 1; splits != tc.splits {
			t.Fatalf("%s: the toggle left the component counts %v", tc.name, sizes)
		}

		planMallocs, planSyncs = 0, 0
		avg := testing.AllocsPerRun(100, step)
		// ReadMemStats pairs don't allocate between themselves, so
		// planMallocs is the planner's own count. The budget tolerates
		// the per-sync constants — one fresh membership slice per
		// dirtied component — but not a rebuilt partition (one slice per
		// component) or fresh grouping scratch.
		avgPlan := float64(planMallocs) / float64(planSyncs)
		t.Logf("%s: plan sync %.2f allocs; full pre-solve update path %.1f allocs", tc.name, avgPlan, avg)
		if avgPlan > 4 {
			t.Errorf("%s: planner.Sync allocates %.2f objects per sync in steady state, want <= 4", tc.name, avgPlan)
		}
		// The full pre-solve update path (store toggle + delta read-out +
		// retract/rederive/reground + plan sync) is gated loosely: it
		// guards against a per-update pass over the whole network
		// sneaking back in anywhere before the solver stage.
		if avg > 300 {
			t.Errorf("%s: update path allocates %.1f objects/run, want <= 300", tc.name, avg)
		}
	}
}

// BenchmarkPlannerSyncSingleFact times the maintained plan's sync alone
// on a 10,000×6 clustered session (about 60 k atoms): each iteration
// toggles one fact and reconciles the grounder outside the timer, then
// syncs the plan. us/sync is the per-update plan cost the solve
// pipeline pays before any kernel runs.
func BenchmarkPlannerSyncSingleFact(b *testing.B) {
	s, ds := clusteredSession(b, 10000)
	if _, err := s.Solve(SolveOptions{Solver: translate.SolverMLN}); err != nil {
		b.Fatalf("cold solve: %v", err)
	}
	eng := s.engine
	probe := ds.Graph[len(ds.Graph)/2]
	live := true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if live {
			if !s.RemoveFact(probe) {
				b.Fatal("RemoveFact: probe was not live")
			}
		} else if err := s.AddFact(probe); err != nil {
			b.Fatalf("AddFact: %v", err)
		}
		live = !live
		if err := s.syncEngine(eng, 1, s.st.DeltaSince(eng.epoch)); err != nil {
			b.Fatalf("syncEngine: %v", err)
		}
		b.StartTimer()
		if _, ps := eng.planner.Sync(eng.g.Atoms(), eng.cs); ps.Mode != "maintained" {
			b.Fatalf("single-fact sync fell back to mode %q", ps.Mode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/sync")
}

// BenchmarkPlannerSyncRandomFact times the maintained plan's sync on the
// churn path: each iteration removes, then re-adds, a fact drawn at
// random from a clustered session of 10,000 or 40,000 clusters (about
// 60 k or 240 k atoms), reconciling the grounder outside the timer, so
// the components it splits, merges or re-heads sit anywhere in the
// partition. Only the two plan syncs are timed. An O(churn) splice reads
// about the same us/sync at both sizes; a sync that shifts or re-slots
// the partition grows with it.
func BenchmarkPlannerSyncRandomFact(b *testing.B) {
	for _, clusters := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			s, ds := clusteredSession(b, clusters)
			// The cold solve only has to leave a planner behind; greedy
			// is the cheapest kernel to get there.
			if _, err := s.Solve(SolveOptions{Solver: translate.SolverGreedy, Parallelism: 1}); err != nil {
				b.Fatalf("cold solve: %v", err)
			}
			eng := s.engine
			rng := rand.New(rand.NewSource(1))
			syncPlan := func() {
				if err := s.syncEngine(eng, 1, s.st.DeltaSince(eng.epoch)); err != nil {
					b.Fatalf("syncEngine: %v", err)
				}
				b.StartTimer()
				_, ps := eng.planner.Sync(eng.g.Atoms(), eng.cs)
				b.StopTimer()
				if ps.Mode != "maintained" {
					b.Fatalf("random-fact sync fell back to mode %q", ps.Mode)
				}
			}
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				probe := ds.Graph[rng.Intn(len(ds.Graph))]
				if !s.RemoveFact(probe) {
					b.Fatal("RemoveFact: probe was not live")
				}
				syncPlan()
				if err := s.AddFact(probe); err != nil {
					b.Fatalf("AddFact: %v", err)
				}
				syncPlan()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(2*b.N), "us/sync")
		})
	}
}
