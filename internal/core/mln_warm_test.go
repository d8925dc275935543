package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/translate"
)

// coldDenseData is the shape of the cold-dense benchmark workload: 50
// clusters of 60 conflicting spells, a tenth of them bridged to the next.
func coldDenseData() *kgen.Dataset {
	return kgen.Clustered(kgen.ClusteredConfig{Clusters: 50, ClusterSize: 60, BridgeRate: 0.1, Seed: 2})
}

// removedFacts lists a Resolution's removed facts, sorted.
func removedFacts(r *Resolution) []string {
	var out []string
	r.Removed.Each(func(f repair.Fact) bool {
		out = append(out, f.Quad.Fact().String())
		return true
	})
	slices.Sort(out)
	return out
}

// TestMLNWarmMatchesCold: an MLN session hands each component its
// previous answer as a warm start, and on 60-atom clustered components
// (all solved exactly, by branch and bound or bucket elimination) it
// must reach the answer a fresh session reaches cold. Over 20 solves,
// each after removing a fact or re-adding one removed before, the
// session's removed facts and removed weight must equal a fresh
// session's over the same store.
func TestMLNWarmMatchesCold(t *testing.T) {
	ds := coldDenseData()
	opts := SolveOptions{Solver: translate.SolverMLN, Parallelism: 1}
	s := NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	var out []rdf.Quad // removed from the session, re-added in turn
	for step := 0; step < 20; step++ {
		if step%2 == 0 {
			q := ds.Graph[(step*613)%len(ds.Graph)]
			if !s.RemoveFact(q) {
				t.Fatalf("step %d: fact %v was not live", step, q)
			}
			out = append(out, q)
		} else {
			if err := s.AddFact(out[0]); err != nil {
				t.Fatal(err)
			}
			out = out[1:]
		}
		warm, err := s.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		if cs := warm.Stats.Components; cs.Engines["local"] != 0 || cs.Fallbacks != 0 || !warm.Output.MLN.Optimal {
			t.Fatalf("step %d: a component was not solved exactly: %+v", step, cs)
		}
		fresh := NewSession()
		if err := fresh.LoadGraph(s.Store().Graph()); err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadProgramText(kgen.ClusteredProgram); err != nil {
			t.Fatal(err)
		}
		cold, err := fresh.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := removedFacts(warm), removedFacts(cold)
		if !slices.Equal(got, want) || warm.Stats.RemovedWeight != cold.Stats.RemovedWeight {
			t.Fatalf("step %d: warm session removed %d facts (weight %v); a fresh session removed %d (weight %v)",
				step, len(got), warm.Stats.RemovedWeight, len(want), cold.Stats.RemovedWeight)
		}
	}
}

// TestMLNParallelismOnColdDenseData solves the cold-dense workload's
// data at parallelism 1 and 2, cold and after each of five single-fact
// updates: the truth vectors and the outcomes must be identical.
func TestMLNParallelismOnColdDenseData(t *testing.T) {
	ds := coldDenseData()
	sessions := make([]*Session, 2)
	for i := range sessions {
		sessions[i] = NewSession()
		if err := sessions[i].LoadGraph(ds.Graph); err != nil {
			t.Fatal(err)
		}
		if err := sessions[i].LoadProgramText(kgen.ClusteredProgram); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 6; step++ {
		if step > 0 {
			q := ds.Graph[(step*997)%len(ds.Graph)]
			for _, s := range sessions {
				s.RemoveFact(q)
			}
		}
		var res [2]*Resolution
		for i, s := range sessions {
			r, err := s.Solve(SolveOptions{Solver: translate.SolverMLN, Parallelism: i + 1})
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		if !slices.Equal(res[0].Output.Truth, res[1].Output.Truth) {
			t.Fatalf("step %d: truth vectors differ between parallelism 1 and 2", step)
		}
		if a, b := canonOutcome(res[0]), canonOutcome(res[1]); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: outcomes differ between parallelism 1 and 2", step)
		}
	}
}
