package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// canonDurable strips everything a restart is allowed to change: stage
// statistics, the raw solver output, the outcome delta (a reopened
// session's first solve reports the full outcome as added), the
// Incremental flag (a reopened session's first solve grounds fresh),
// the engine-internal AtomIDs, and every ordering derived from atom
// ids — fact-list order, a removal's explanation order, and cluster
// order all follow the order atoms entered the incremental grounding,
// which a fresh post-restart grounding is allowed to renumber. The
// facts themselves, their explanations, confidences, cluster
// memberships and statistics are compared exactly.
func canonDurable(r *Resolution) canonResolution {
	c := canonOutcome(r)
	canon := func(fs []repair.Fact) []repair.Fact {
		out := append([]repair.Fact(nil), fs...)
		for i := range out {
			out[i].AtomID = 0
			if len(out[i].Explanations) > 1 {
				ex := append([]repair.Explanation(nil), out[i].Explanations...)
				sort.Slice(ex, func(a, b int) bool { return ex[a].String() < ex[b].String() })
				out[i].Explanations = ex
			}
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Quad.String() < out[b].Quad.String() })
		return out
	}
	c.Kept = canon(c.Kept)
	c.Removed = canon(c.Removed)
	c.Inferred = canon(c.Inferred)
	for i := range c.Clusters {
		c.Clusters[i].Root = 0
	}
	sort.Slice(c.Clusters, func(a, b int) bool { return fmt.Sprint(c.Clusters[a]) < fmt.Sprint(c.Clusters[b]) })
	return c
}

// TestDurableRecoveryByteIdentical is the recovery property suite: a
// durable session and a volatile witness are driven through the same
// randomized add/remove/solve schedule, with the durable session
// periodically checkpointed and crash-reopened (fsync then abandon, or
// graceful close). Every solve after every recovery must be
// byte-identical to the never-restarted witness.
func TestDurableRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	durable, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	witness := NewSession()
	for _, s := range []*Session{durable, witness} {
		if err := s.LoadProgramText(equivProgram); err != nil {
			t.Fatal(err)
		}
	}

	pool := equivPool(6, 3)
	rng := rand.New(rand.NewSource(42))
	live := make([]bool, len(pool))
	opts := SolveOptions{Solver: translate.SolverMLN}

	reopen := func(graceful bool) {
		if graceful {
			if err := durable.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		} else {
			// Crash after fsync: the durable tail covers every change,
			// but no checkpoint or clean shutdown happens.
			if err := durable.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			durable = nil
		}
		back, err := OpenSession(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := back.LoadProgramText(equivProgram); err != nil {
			t.Fatal(err)
		}
		durable = back
	}

	for step := 0; step < 30; step++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			idx := rng.Intn(len(pool))
			if live[idx] {
				durable.RemoveFact(pool[idx])
				witness.RemoveFact(pool[idx])
				live[idx] = false
			} else {
				for _, s := range []*Session{durable, witness} {
					if err := s.AddFact(pool[idx]); err != nil {
						t.Fatalf("step %d: add %d: %v", step, idx, err)
					}
				}
				live[idx] = true
			}
		}

		switch step % 5 {
		case 1:
			if err := durable.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		case 2:
			reopen(false)
		case 4:
			if step%2 == 0 {
				if err := durable.Checkpoint(); err != nil {
					t.Fatalf("step %d: checkpoint: %v", step, err)
				}
			}
			reopen(true)
		}

		if got, want := durable.Store().Epoch(), witness.Store().Epoch(); got != want {
			t.Fatalf("step %d: recovered epoch %d, witness %d", step, got, want)
		}
		a, err := durable.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: durable solve: %v", step, err)
		}
		b, err := witness.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: witness solve: %v", step, err)
		}
		if !reflect.DeepEqual(canonDurable(a), canonDurable(b)) {
			t.Fatalf("step %d: recovered solve diverged from witness\nrecovered: %+v\nwitness:   %+v",
				step, a.Outcome, b.Outcome)
		}
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveredMatchesFresh checks that a reopened session
// answers from its facts and program alone: a durable session is driven
// through adds, a solve, a retraction, more adds, a second solve, a
// checkpoint and a close, so its atoms were interned in update order;
// the reopened session's first solve must equal a fresh session loaded
// with the recovered graph and the same program. It covers the exact and
// the local-search MaxSAT engines (a 50-atom clique of coach spells is
// too wide for bucket elimination and too large for the branch-and-bound,
// so it goes to local search, whose trajectory depends on its start),
// PSL and greedy, at parallelism 1 and 2.
func TestDurableRecoveredMatchesFresh(t *testing.T) {
	configs := []struct {
		name   string
		opts   SolveOptions
		clique int // spells of one extra subject, every two overlapping
	}{
		{"mln", SolveOptions{Solver: translate.SolverMLN}, 0},
		{"mln-local", SolveOptions{Solver: translate.SolverMLN}, 50},
		{"psl", SolveOptions{Solver: translate.SolverPSL}, 0},
		{"greedy", SolveOptions{Solver: translate.SolverGreedy}, 0},
	}
	for _, cfg := range configs {
		for _, par := range []int{1, 2} {
			opts := cfg.opts
			opts.Parallelism = par
			for seed := int64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("%s/p%d/seed%d", cfg.name, par, seed)
				pool := append(equivPool(6, 4), coachClique("Q", cfg.clique)...)
				got, want, engines := recoveredAndFresh(t, opts, seed, pool)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: recovered first solve differs from a fresh session\nrecovered: %+v\nfresh:     %+v",
						name, got, want)
				}
				if cfg.clique > 0 && engines["local"] == 0 {
					t.Errorf("%s: no component went to local search: %v", name, engines)
				}
			}
		}
	}
}

// coachClique is n coach spells of one subject at distinct clubs, every
// two overlapping, so c2 grounds them into one clique of n atoms: from
// 18 atoms too wide for bucket elimination's table budget, and from 49
// too large for the branch-and-bound.
func coachClique(subject string, n int) []rdf.Quad {
	out := make([]rdf.Quad, n)
	for k := range out {
		out[k] = rdf.NewQuad(subject, "coach", fmt.Sprintf("Clique_%s_%d", subject, k),
			temporal.MustNew(2000+int64(k%3), 2010), 0.55+0.4*float64(k*7%n)/float64(n))
	}
	return out
}

// recoveredAndFresh runs one TestDurableRecoveredMatchesFresh schedule
// over pool and returns the reopened session's first solve and the
// fresh session's, both canonicalised, and the reopened solve's engine
// tallies.
func recoveredAndFresh(t *testing.T, opts SolveOptions, seed int64, pool []rdf.Quad) (recovered, fresh canonResolution, engines map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	first, second := pool[:len(pool)/2], pool[len(pool)/2:]

	dir := t.TempDir()
	s, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range first {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	s.RemoveFact(first[rng.Intn(len(first))])
	for _, q := range second {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if err := back.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	r, err := back.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}

	witness := NewSession()
	if err := witness.LoadGraph(back.Store().Graph()); err != nil {
		t.Fatal(err)
	}
	if err := witness.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	w, err := witness.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return canonDurable(r), canonDurable(w), r.Stats.Components.Engines
}

// TestEnableDurability checks the volatile-to-durable upgrade: the
// current store is checkpointed into the fresh directory and later
// mutations flow through the WAL, so a reopen recovers everything.
func TestEnableDurability(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(3, 2)
	for _, q := range pool[:4] {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := s.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(dir); err == nil {
		t.Fatal("double EnableDurability should fail")
	}
	for _, q := range pool[4:] {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	s.RemoveFact(pool[0])
	wantEpoch := s.Store().Epoch()
	wantGraph := s.Store().Graph()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable() || s.DataDir() != "" {
		t.Fatal("closed session still reports durable")
	}

	back, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !back.Durable() || back.DataDir() != dir {
		t.Fatal("reopened session not durable")
	}
	st := back.RecoveryStats()
	if st == nil || !st.SnapshotLoaded || st.Epoch != wantEpoch {
		t.Fatalf("unexpected recovery stats: %+v", st)
	}
	if got := back.Store().Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if !reflect.DeepEqual(back.Store().Graph(), wantGraph) {
		t.Fatal("recovered graph differs")
	}
}
