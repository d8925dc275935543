package tecore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	tecore "repro"
	"repro/internal/repair"
)

// The delta-maintained Outcome's contract: the live, patched Outcome a
// component-decomposed incremental session materializes is byte-
// identical to a fresh whole-graph repair.Resolve over the same solver
// output at every step and every parallelism setting, and the
// OutcomeDelta changelog is complete — replaying it over the previous
// outcome reproduces the new one, fact for fact and cluster for
// cluster. The suite drives randomized add/remove/solve sequences
// (including bridge facts that merge and split components) with
// mid-stream threshold and solver changes that invalidate the read-out
// caches.

// shadowOutcome replays OutcomeDelta changelogs: per-class fact maps
// keyed by statement, cluster set keyed by membership.
type shadowOutcome struct {
	kept, removed, inferred map[string]string
	clusters                map[string]bool
}

func newShadow() *shadowOutcome {
	return &shadowOutcome{
		kept:     map[string]string{},
		removed:  map[string]string{},
		inferred: map[string]string{},
		clusters: map[string]bool{},
	}
}

func factKey(f tecore.Fact) string { return f.Quad.Fact().String() }

// factVal renders the full fact content, so a confidence or
// explanation change that the changelog must report is caught.
func factVal(f tecore.Fact) string { return fmt.Sprintf("%+v", f) }

// renderCluster gives a cluster a stable identity: its sorted member
// statements joined.
func renderCluster(cl tecore.Cluster) string {
	keys := make([]string, 0, len(cl.Keys))
	for _, k := range cl.Keys {
		keys = append(keys, k.String())
	}
	return strings.Join(keys, " | ")
}

func (s *shadowOutcome) apply(t *testing.T, d *tecore.OutcomeDelta) {
	t.Helper()
	rm := func(m map[string]string, fs tecore.FactList, list string) {
		for _, f := range collect(fs.Each) {
			if _, ok := m[factKey(f)]; !ok {
				t.Fatalf("delta removes %s from %s, which does not hold it", factKey(f), list)
			}
			delete(m, factKey(f))
		}
	}
	add := func(m map[string]string, fs tecore.FactList, list string) {
		for _, f := range collect(fs.Each) {
			if _, ok := m[factKey(f)]; ok {
				t.Fatalf("delta adds %s to %s, which already holds it", factKey(f), list)
			}
			m[factKey(f)] = factVal(f)
		}
	}
	rm(s.kept, d.RemovedKept, "kept")
	rm(s.removed, d.RemovedRemoved, "removed")
	rm(s.inferred, d.RemovedInferred, "inferred")
	add(s.kept, d.AddedKept, "kept")
	add(s.removed, d.AddedRemoved, "removed")
	add(s.inferred, d.AddedInferred, "inferred")
	for _, cl := range collect(d.RemovedClusters.Each) {
		id := renderCluster(cl)
		if !s.clusters[id] {
			t.Fatalf("delta removes unknown cluster %s", id)
		}
		delete(s.clusters, id)
	}
	for _, cl := range collect(d.AddedClusters.Each) {
		id := renderCluster(cl)
		if s.clusters[id] {
			t.Fatalf("delta adds duplicate cluster %s", id)
		}
		s.clusters[id] = true
	}
}

// assertMatches checks the replayed shadow equals the materialized
// Outcome.
func (s *shadowOutcome) assertMatches(t *testing.T, oc *tecore.Outcome) {
	t.Helper()
	check := func(m map[string]string, fs tecore.FactList, list string) {
		if len(m) != fs.Len() {
			t.Fatalf("%s: shadow holds %d facts, outcome %d", list, len(m), fs.Len())
		}
		for _, f := range collect(fs.Each) {
			if v, ok := m[factKey(f)]; !ok || v != factVal(f) {
				t.Fatalf("%s: outcome fact %s not reproduced by the changelog (shadow %q, outcome %q)",
					list, factKey(f), v, factVal(f))
			}
		}
	}
	check(s.kept, oc.Kept, "kept")
	check(s.removed, oc.Removed, "removed")
	check(s.inferred, oc.Inferred, "inferred")
	if len(s.clusters) != oc.Clusters.Len() {
		t.Fatalf("clusters: shadow holds %d, outcome %d", len(s.clusters), oc.Clusters.Len())
	}
	for _, cl := range collect(oc.Clusters.Each) {
		if id := renderCluster(cl); !s.clusters[id] {
			t.Fatalf("clusters: outcome cluster %s not reproduced by the changelog", id)
		}
	}
}

// assertLiveByteIdentical compares the live-patched Outcome against a
// fresh whole-graph Resolve over the exact same solver output.
func assertLiveByteIdentical(t *testing.T, step int, res *tecore.Resolution, threshold float64) {
	t.Helper()
	ocs := res.Stats.Outcome
	if ocs == nil || ocs.Mode != tecore.OutcomeLive {
		t.Fatalf("step %d: component solve did not take the live outcome path: %+v", step, ocs)
	}
	if res.Delta == nil {
		t.Fatalf("step %d: live path returned no changelog", step)
	}
	whole, err := repair.Resolve(res.Output, repair.Options{Threshold: threshold})
	if err != nil {
		t.Fatalf("step %d: whole-graph resolve: %v", step, err)
	}
	a, b := *res.Outcome, *whole
	a.Stats.Repair, b.Stats.Repair = nil, nil // stage stats differ by design
	a.Stats.Outcome, b.Stats.Outcome = nil, nil
	a.Stats.Ground, b.Stats.Ground = nil, nil
	a.Stats.Plan, b.Stats.Plan = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("step %d: live outcome diverged from whole-graph assembly\nlive:  %+v\nwhole: %+v",
			step, a.Stats, b.Stats)
	}
}

func runLiveOutcomeDifferential(t *testing.T, solver tecore.Solver, threshold float64, par int, seed int64, steps int) {
	t.Helper()
	pool := componentPool(4, 3, seed)
	s := tecore.NewSession()
	if err := s.LoadProgramText(componentProgram); err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if i%3 == 0 {
			if err := s.AddFact(pool[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	shadow := newShadow()
	curThreshold := threshold
	for step := 0; step < steps; step++ {
		// Mid-stream threshold flip: the read-out caches and the live
		// outcome must drop; the next delta reports the full state as
		// added over an empty previous state.
		invalidated := false
		if threshold > 0 && step == steps/2 {
			if curThreshold == threshold {
				curThreshold = 0
			} else {
				curThreshold = threshold
			}
			invalidated = true
		}
		for m := 0; m < 1+rng.Intn(3); m++ {
			i := rng.Intn(len(pool))
			switch op := rng.Intn(4); {
			case op < 2:
				q := pool[i]
				if rng.Intn(2) == 0 {
					q.Confidence = 0.5 + 0.4*rng.Float64()
				}
				if err := s.AddFact(q); err != nil {
					t.Fatal(err)
				}
			case op < 3:
				s.RemoveFact(pool[i])
			default:
				s.RemoveFact(pool[i])
				if err := s.AddFact(pool[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := s.Solve(tecore.SolveOptions{
			Solver: solver, Threshold: curThreshold, Parallelism: par})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertLiveByteIdentical(t, step, res, curThreshold)
		if invalidated {
			d := res.Delta
			if n := d.RemovedKept.Len() + d.RemovedRemoved.Len() + d.RemovedInferred.Len() + d.RemovedClusters.Len(); n != 0 {
				t.Fatalf("step %d: post-invalidation delta removed %d entries from a fresh live outcome", step, n)
			}
			shadow = newShadow()
		}
		shadow.apply(t, res.Delta)
		shadow.assertMatches(t, res.Outcome)
	}
}

func TestLiveOutcomeDifferentialMLNExact(t *testing.T) {
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			runLiveOutcomeDifferential(t, tecore.SolverMLN, 0, par, 211, 12)
		})
	}
}

func TestLiveOutcomeDifferentialMLNThreshold(t *testing.T) {
	// A positive threshold exercises the ThresholdFiltered split and,
	// flipped mid-stream, the cache-invalidation path of the live
	// outcome.
	runLiveOutcomeDifferential(t, tecore.SolverMLN, 0.6, 0, 223, 12)
}

func TestLiveOutcomeDifferentialPSL(t *testing.T) {
	// Same solver output on both sides, so even PSL's soft-value-derived
	// confidences must agree bitwise — and every ADMM resumption that
	// moves a confidence must surface in the changelog.
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			runLiveOutcomeDifferential(t, tecore.SolverPSL, 0, par, 227, 10)
		})
	}
}

// TestLiveOutcomeSolverSwitch alternates MLN and PSL on one session:
// each switch drops the read-out caches and the live outcome, so every
// post-switch delta must rebuild from empty (no removals) while the
// materialized Outcome stays byte-identical to whole-graph assembly.
func TestLiveOutcomeSolverSwitch(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadProgramText(componentProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range componentPool(3, 3, 229) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	solvers := []tecore.Solver{tecore.SolverMLN, tecore.SolverPSL, tecore.SolverMLN}
	for step, solver := range solvers {
		res, err := s.Solve(tecore.SolveOptions{Solver: solver})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertLiveByteIdentical(t, step, res, 0)
		d := res.Delta
		if n := d.RemovedKept.Len() + d.RemovedRemoved.Len() + d.RemovedInferred.Len(); n != 0 {
			t.Fatalf("step %d: solver switch delta removed %d facts from a fresh live outcome", step, n)
		}
		if d.AddedKept.Len() != res.Stats.KeptFacts {
			t.Fatalf("step %d: post-switch delta added %d kept facts, outcome holds %d",
				step, d.AddedKept.Len(), res.Stats.KeptFacts)
		}
		shadow := newShadow()
		shadow.apply(t, d)
		shadow.assertMatches(t, res.Outcome)
	}
}

// TestOutcomeDeltaEmptyOnNoOpSolve re-solves an unchanged session: the
// live outcome must reuse every component and report an empty
// changelog.
func TestOutcomeDeltaEmptyOnNoOpSolve(t *testing.T) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{Clusters: 12, ClusterSize: 5, Seed: 19})
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
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta == nil || !res.Delta.Empty() {
		t.Fatalf("no-op solve produced a non-empty delta: %+v", res.Delta)
	}
	ocs := res.Stats.Outcome
	if ocs.Patched != 0 || ocs.Reused == 0 {
		t.Fatalf("no-op solve patched %d components, reused %d", ocs.Patched, ocs.Reused)
	}
}

// TestOutcomeDeltaRevival walks a fact through tombstone and revival:
// removing the dominant statement revives its conflict partner into
// the kept list, and re-adding the tombstoned fact must surface it in
// AddedKept (revival keeps the original identity).
func TestOutcomeDeltaRevival(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadProgramText(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"); err != nil {
		t.Fatal(err)
	}
	chelsea := tecore.NewQuad("CR", "coach", "Chelsea", tecore.MustInterval(2000, 2004), 0.9)
	napoli := tecore.NewQuad("CR", "coach", "Napoli", tecore.MustInterval(2001, 2003), 0.6)
	for _, q := range []tecore.Quad{chelsea, napoli} {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RemovedFacts != 1 {
		t.Fatalf("fixture should remove exactly the Napoli spell: %+v", res.Stats)
	}
	hasKey := func(fs tecore.FactList, q tecore.Quad) bool {
		for _, f := range collect(fs.Each) {
			if f.Quad.Fact() == q.Fact() {
				return true
			}
		}
		return false
	}

	// Tombstone the winner: the loser revives into kept.
	s.RemoveFact(chelsea)
	res, err = s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKey(res.Delta.AddedKept, napoli) || !hasKey(res.Delta.RemovedRemoved, napoli) {
		t.Fatalf("conflict partner did not move removed→kept in the changelog: %+v", res.Delta)
	}
	if !hasKey(res.Delta.RemovedKept, chelsea) {
		t.Fatalf("tombstoned fact did not leave the kept list: %+v", res.Delta)
	}

	// Revive it: the fact reappears in AddedKept.
	if err := s.AddFact(chelsea); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKey(res.Delta.AddedKept, chelsea) {
		t.Fatalf("revived fact missing from AddedKept: %+v", res.Delta)
	}
	if !hasKey(res.Delta.AddedRemoved, napoli) || !hasKey(res.Delta.RemovedKept, napoli) {
		t.Fatalf("revival did not push the partner back to removed: %+v", res.Delta)
	}
}

// TestOutcomeDeltaClusterScoped: a single-fact update on a clustered
// graph must confine the changelog — facts and clusters — to the one
// dirtied component; every untouched cluster's identity is stable
// across reuse and appears in no delta list.
func TestOutcomeDeltaClusterScoped(t *testing.T) {
	ds := tecore.GenerateClustered(tecore.ClusteredConfig{Clusters: 20, ClusterSize: 5, Seed: 7})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Stats.ConflictClusters
	probe := tecore.NewQuad("player/00003", "playsFor", "club/00003/0/probe",
		tecore.MustInterval(1991, 1993), 0.55)
	if err := s.AddFact(probe); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	ocs := res.Stats.Outcome
	if ocs.Patched == 0 || ocs.Patched > 3 || ocs.Reused < ocs.Patched {
		t.Fatalf("single-fact update should patch only its component: %+v", ocs)
	}
	d := res.Delta
	mentions := func(keys []string) {
		t.Helper()
		for _, k := range keys {
			if !strings.Contains(k, "00003") {
				t.Fatalf("changelog touched a clean component: %s (delta %+v)", k, d)
			}
		}
	}
	for _, fs := range []tecore.FactList{
		d.AddedKept, d.RemovedKept, d.AddedRemoved, d.RemovedRemoved, d.AddedInferred, d.RemovedInferred} {
		for _, f := range collect(fs.Each) {
			mentions([]string{f.Quad.Fact().String()})
		}
	}
	for _, cls := range []tecore.ClusterList{d.AddedClusters, d.RemovedClusters} {
		for _, cl := range collect(cls.Each) {
			for _, k := range cl.Keys {
				mentions([]string{k.String()})
			}
		}
	}
	if got := res.Stats.ConflictClusters; got < before {
		t.Fatalf("probe should not shrink the cluster count: %d → %d", before, got)
	}
}

// TestLiveOutcomeMatchesAssembly: the session's delta-patched outcome
// must equal the from-scratch sort/merge assembly of the whole-graph
// read-out (repair.Resolve, which reports itself as assembled) over the
// same solver output, on the first solve and after updates.
func TestLiveOutcomeMatchesAssembly(t *testing.T) {
	pool := componentPool(3, 3, 233)
	s := tecore.NewSession()
	if err := s.LoadProgramText(componentProgram); err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if i%2 == 0 {
			if err := s.AddFact(pool[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN}
	for step := 0; step < 3; step++ {
		switch step {
		case 1:
			if err := s.AddFact(pool[1]); err != nil {
				t.Fatal(err)
			}
		case 2:
			s.RemoveFact(pool[2])
		}
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		assembled, err := repair.Resolve(res.Output, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ocs := assembled.Stats.Outcome; ocs == nil || ocs.Mode != tecore.OutcomeAssembled {
			t.Fatalf("step %d: Resolve reported outcome stats %+v", step, ocs)
		}
		a, b := *res.Outcome, *assembled
		a.Stats.Repair, b.Stats.Repair = nil, nil // stage stats differ by design
		a.Stats.Outcome, b.Stats.Outcome = nil, nil
		a.Stats.Ground, b.Stats.Ground = nil, nil
		a.Stats.Plan, b.Stats.Plan = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: live outcome diverged from the whole-graph assembly\nlive:      %+v\nassembled: %+v",
				step, a.Stats, b.Stats)
		}
	}
}
