package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// clusteredSession loads a kgen.Clustered graph of about 6·clusters
// facts with its standard program.
func clusteredSession(t testing.TB, clusters int) (*Session, *kgen.Dataset) {
	t.Helper()
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: clusters, BridgeRate: 0.1, Seed: 5})
	s := NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	return s, ds
}

// outcomeSnapshot renders everything an Outcome exposes — the collected
// lists in full and the statistics through their pointers — so a later
// change anywhere inside it shows up as a different string.
func outcomeSnapshot(t *testing.T, oc *repair.Outcome) string {
	t.Helper()
	stats, err := json.Marshal(oc.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\nkept %+v\nremoved %+v\ninferred %+v\nclusters %+v", stats,
		collect(oc.Kept.Each), collect(oc.Removed.Each),
		collect(oc.Inferred.Each), collect(oc.Clusters.Each))
}

// TestHeldOutcomeUnchangedByLaterUpdates is the unit-level guard of the
// server's snapshot-isolated reads: an Outcome handed out by one solve
// stays exactly as it was while the session's later solves splice their
// churn into the same live lists, whose chunks the held Outcome shares.
func TestHeldOutcomeUnchangedByLaterUpdates(t *testing.T) {
	for _, solver := range []translate.Solver{translate.SolverMLN, translate.SolverPSL} {
		t.Run(solver.String(), func(t *testing.T) {
			s, ds := clusteredSession(t, 330)
			opts := SolveOptions{Solver: solver}
			res, err := s.Solve(opts)
			if err != nil {
				t.Fatal(err)
			}
			held := res.Outcome
			want := outcomeSnapshot(t, held)

			// 200 single-fact toggles over random facts: each is removed
			// and later re-added, so the splices touch chunks all over the
			// lists the held Outcome shares.
			rng := rand.New(rand.NewSource(17))
			changed := 0
			for i := 0; i < 100; i++ {
				q := ds.Graph[rng.Intn(len(ds.Graph))]
				for _, remove := range []bool{true, false} {
					if remove {
						s.RemoveFact(q)
					} else if err := s.AddFact(q); err != nil {
						t.Fatal(err)
					}
					res, err := s.Solve(opts)
					if err != nil {
						t.Fatalf("toggle %d: %v", i, err)
					}
					if !res.Delta.Empty() {
						changed++
					}
				}
			}
			if changed == 0 {
				t.Fatal("no toggle changed the outcome; the test exercises nothing")
			}
			if got := outcomeSnapshot(t, held); got != want {
				t.Fatalf("a held Outcome changed under %d later updates", changed)
			}
		})
	}
}

// renderLists renders an Outcome's four lists in full: every fact with
// its explanations and their partners, every cluster with its keys.
func renderLists(oc *repair.Outcome) string {
	return fmt.Sprintf("kept %+v\nremoved %+v\ninferred %+v\nclusters %+v",
		collect(oc.Kept.Each), collect(oc.Removed.Each),
		collect(oc.Inferred.Each), collect(oc.Clusters.Each))
}

// renderDelta renders a changelog's eight lists in full.
func renderDelta(d *repair.OutcomeDelta) string {
	return fmt.Sprintf("kept +%+v -%+v\nremoved +%+v -%+v\ninferred +%+v -%+v\nclusters +%+v -%+v",
		collect(d.AddedKept.Each), collect(d.RemovedKept.Each),
		collect(d.AddedRemoved.Each), collect(d.RemovedRemoved.Each),
		collect(d.AddedInferred.Each), collect(d.RemovedInferred.Each),
		collect(d.AddedClusters.Each), collect(d.RemovedClusters.Each))
}

// heldDelta is a solve's changelog and its rendering at hand-out.
type heldDelta struct {
	d    *repair.OutcomeDelta
	want string
}

// TestHeldOutcomeRendersDuringUpdates reads a held Outcome, and every
// solve's held changelog, from another goroutine, without any lock,
// while the session goes on solving updates whose subjects, objects and
// intervals were never seen: the store's dictionary and the atom table
// grow and relocate under the reader, which decodes its records through
// the key view captured when the Outcome was published. The program
// derives facts under a head predicate absent from the data, so
// grounding interns a rule constant into the store's dictionary too, and
// the reader also reads the store's memory statistics, as the server's
// session-info handler does beside a solve. Every rendering of the
// Outcome must equal the first, and every rendering of a changelog (the
// first solve's is the whole outcome) the one taken when its solve
// returned; the race detector checks that the reads share no memory with
// the writes. The writer waits for the reader's first rendering before
// its first update and for one more every 10 solves, so the reads
// interleave with the updates however the goroutines are scheduled.
func TestHeldOutcomeRendersDuringUpdates(t *testing.T) {
	const headAbsentFromData = "f: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2"
	for _, solver := range []translate.Solver{translate.SolverMLN, translate.SolverPSL} {
		t.Run(solver.String(), func(t *testing.T) {
			s, _ := clusteredSession(t, 60)
			opts := SolveOptions{Solver: solver}
			res, err := s.Solve(opts)
			if err != nil {
				t.Fatal(err)
			}
			held := res.Outcome
			first := renderLists(held)
			// One changelog per solve below, plus the first solve's.
			deltas := make(chan heldDelta, 1+40*4)
			deltas <- heldDelta{res.Delta, renderDelta(res.Delta)}
			// rendered carries a token per completed rendering; the
			// writer drains it, then waits for a fresh one.
			rendered := make(chan struct{}, 1)
			awaitRender := func() {
				select {
				case <-rendered:
				default:
				}
				<-rendered
			}
			solves := 0
			solve := func() {
				res, err := s.Solve(opts)
				if err != nil {
					t.Fatal(err)
				}
				deltas <- heldDelta{res.Delta, renderDelta(res.Delta)}
				if solves++; solves%10 == 0 {
					awaitRender()
				}
			}

			stop := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				var hds []heldDelta
				terms := 0
				// readStats reads the store's statistics, as the server's
				// session-info handler does; the dictionary only grows.
				readStats := func(n int) error {
					m := s.Store().MemoryStats()
					if m.Terms < terms {
						return fmt.Errorf("rendering %d: the store reports %d terms after %d", n, m.Terms, terms)
					}
					terms = m.Terms
					return nil
				}
				check := func(n int) error {
					if got := renderLists(held); got != first {
						return fmt.Errorf("rendering %d of the held Outcome differs from the first", n)
					}
					if err := readStats(n); err != nil {
						return err
					}
					for {
						select {
						case hd := <-deltas:
							hds = append(hds, hd)
							continue
						default:
						}
						break
					}
					for i, hd := range hds {
						if got := renderDelta(hd.d); got != hd.want {
							return fmt.Errorf("rendering %d of held changelog %d differs from its rendering at hand-out", n, i)
						}
						if err := readStats(n); err != nil {
							return err
						}
					}
					return nil
				}
				for n := 0; ; n++ {
					select {
					case <-stop:
						switch {
						case n < 2:
							done <- fmt.Errorf("the reader rendered %d times; the test exercises nothing", n)
						default:
							// Once more after the last solve, so every
							// changelog is read after it was handed out.
							done <- check(n)
						}
						return
					default:
					}
					if err := check(n); err != nil {
						done <- err
						// Unblock a writer waiting for this rendering.
						close(rendered)
						return
					}
					select {
					case rendered <- struct{}{}:
					default:
					}
				}
			}()

			awaitRender()
			// The rule arrives once the reader runs, so the next solve
			// interns its head constant beside the reader.
			if err := s.LoadProgramText(headAbsentFromData); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				// Two overlapping spells of a new player at new clubs: a
				// conflict over never-seen terms and intervals.
				start := int64(3000 + 7*i)
				pair := []rdf.Quad{
					rdf.NewQuad(fmt.Sprintf("novel/player/%d", i), "playsFor", fmt.Sprintf("novel/club/%d/a", i),
						temporal.MustNew(start, start+3), 0.8),
					rdf.NewQuad(fmt.Sprintf("novel/player/%d", i), "playsFor", fmt.Sprintf("novel/club/%d/b", i),
						temporal.MustNew(start+1, start+5), 0.6),
				}
				for _, q := range pair {
					if err := s.AddFact(q); err != nil {
						t.Fatal(err)
					}
					solve()
				}
				for _, q := range pair {
					s.RemoveFact(q)
					solve()
				}
			}
			close(stop)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionResidentBytesPerFact is the session's resident-memory gate:
// a solved 30k-fact clustered MLN session, after 200 single-fact
// toggles, holds its store, ground network, plan, caches and published
// Outcome in at most 650 bytes of live heap per fact. The read-out
// holds each fact and cluster once, as an atom record in the live
// lists, and decodes on read, and the atom table keys into the store's
// dictionary rather than a copy of it, which puts the figure near 410
// (about 530 with the atom table's own dictionary); holding every fact,
// explanation and cluster as rendered statement keys (two copies of
// each: the per-component records and the list chunks) costs about
// 1,600.
func TestSessionResidentBytesPerFact(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under -race")
	}
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 5000, BridgeRate: 0.1, Seed: 5})
	var base, held runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	s := NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Solver: translate.SolverMLN}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	facts := res.Stats.TotalFacts
	if facts < 30000 {
		t.Fatalf("session holds %d facts, want at least 30k", facts)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		q := ds.Graph[rng.Intn(len(ds.Graph))]
		s.RemoveFact(q)
		if _, err := s.Solve(opts); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
		if res, err = s.Solve(opts); err != nil {
			t.Fatal(err)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&held)
	perFact := (int64(held.HeapAlloc) - int64(base.HeapAlloc)) / int64(facts)
	runtime.KeepAlive(s)
	runtime.KeepAlive(res)
	t.Logf("session on %d facts: %d B/fact of live heap", facts, perFact)
	const limit = 650
	if perFact > limit {
		t.Errorf("session holds %d B/fact of live heap, want <= %d", perFact, limit)
	}
}

// TestOutcomePatchAllocs gates the bytes a steady-state single-fact
// update allocates end to end, on a graph large enough that copying a
// whole outcome list (about 400 KiB of records for the removed facts
// here) dwarfs the rest of the update. Publishing the outcome copies only the chunks the
// churn lands in plus the chunk slices, and the chunks hold 16-byte
// fact records rather than rendered facts: the whole update allocates
// about 64 KiB, and the gate sits at twice that.
func TestOutcomePatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not meaningful under -race")
	}
	s, _ := clusteredSession(t, 2600)
	opts := SolveOptions{Solver: translate.SolverMLN, Parallelism: 1}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Stats.TotalFacts; n < 15000 {
		t.Fatalf("session holds %d facts, want at least 15k", n)
	}
	// A second club for one player at overlapping times: a conflict
	// inside one component, so each toggle re-solves that component and
	// moves facts between the kept and removed lists.
	probe := rdf.NewQuad("player/00007", "playsFor", "club/00007/0/probe", temporal.MustNew(1991, 1993), 0.55)
	toggle := func() {
		if !s.RemoveFact(probe) {
			if err := s.AddFact(probe); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delta.Empty() {
			t.Fatal("the probe toggle did not change the outcome")
		}
	}
	for i := 0; i < 4; i++ {
		toggle()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		toggle()
	}
	runtime.ReadMemStats(&after)
	perToggle := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("single-fact toggle on %d facts: %d KiB allocated per solve", res.Stats.TotalFacts, perToggle>>10)
	const limit = 128 << 10
	if perToggle > limit {
		t.Errorf("single-fact toggle allocates %d KiB per solve, want <= %d KiB", perToggle>>10, limit>>10)
	}
}

// TestColdSolveOutcomeAllocs gates the bytes the outcome stage
// (ComponentRun.Finish) allocates on a session's first MLN solve, where
// every component's read-out enters the live lists at once. It replays
// that stage on the first solve's output with a fresh read-out cache,
// exactly as the first solve ran it. Building the lists costs one
// sorted array of records per list plus the chunks cut from it; the
// changelog wraps the same records and decodes nothing, so the stage
// allocates about 1.4 MiB on 16 k facts. Rendering the full-state
// changelog into facts, explanation partners and cluster keys at
// hand-out, which nobody but a capped delta-mode response reads, brings
// it to about 11 MiB; the gate sits between the two.
func TestColdSolveOutcomeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not meaningful under -race")
	}
	s, _ := clusteredSession(t, 2600)
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Stats.TotalFacts; n < 15000 {
		t.Fatalf("session holds %d facts, want at least 15k", n)
	}
	plan := engine.NewPlan(res.Output.Grounder.Atoms(), res.Output.Clauses)
	run, err := repair.BeginComponents(res.Output, repair.Options{Parallelism: 1}, plan, repair.NewComponentCache())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	oc, d := run.Finish()
	runtime.ReadMemStats(&after)
	if d.AddedKept.Len() != oc.Kept.Len() || d.AddedKept.Len() == 0 {
		t.Fatalf("the first solve's changelog adds %d kept facts, the outcome holds %d", d.AddedKept.Len(), oc.Kept.Len())
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold outcome stage on %d facts: %d KiB allocated", res.Stats.TotalFacts, bytes>>10)
	const limit = 4 << 20
	if bytes > limit {
		t.Errorf("cold outcome stage allocates %d KiB, want <= %d KiB", bytes>>10, limit>>10)
	}
}

// TestPSLUpdateAllocs gates the bytes a steady-state PSL update of eight
// toggled facts allocates end to end. The ADMM kernel runs in the
// planner's change set and updates its warm iterate tables in place, so
// what remains is the scoped components' sweeps plus one copy each of
// the soft values and truth vector (a held Result must not change). A
// reintroduced per-solve warm map, or a pass over every component,
// allocates several times as much per solve and fails.
func TestPSLUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not meaningful under -race")
	}
	s, ds := clusteredSession(t, 2600)
	opts := SolveOptions{Solver: translate.SolverPSL, Parallelism: 1}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Stats.TotalFacts; n < 15000 {
		t.Fatalf("session holds %d facts, want at least 15k", n)
	}
	rng := rand.New(rand.NewSource(11))
	live := make([]bool, len(ds.Graph))
	for i := range live {
		live[i] = true
	}
	toggle := func() {
		for m := 0; m < 8; m++ {
			i := rng.Intn(len(ds.Graph))
			if live[i] {
				s.RemoveFact(ds.Graph[i])
			} else if err := s.AddFact(ds.Graph[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = !live[i]
		}
		if _, err := s.Solve(opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		toggle()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		toggle()
	}
	runtime.ReadMemStats(&after)
	perToggle := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("8-fact PSL toggle on %d facts: %d KiB allocated per solve", res.Stats.TotalFacts, perToggle>>10)
	// About 374 KiB today; the code that rebuilt the warm maps and scoped
	// every component allocated about 4 MiB, and the chunk copies of
	// rendered facts brought it to 900 KiB before the lists held records.
	const limit = 768 << 10
	if perToggle > limit {
		t.Errorf("8-fact PSL toggle allocates %d KiB per solve, want <= %d KiB", perToggle>>10, limit>>10)
	}
}
