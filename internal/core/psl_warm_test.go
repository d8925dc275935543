package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/translate"
)

// TestPSLWarmMatchesCold: a PSL session warm-starts ADMM from its
// previous iterates, and it must reach the discrete answer a fresh
// session reaches cold. On 1000×6 clustered data most atoms sit on the
// rounding threshold at the optimum (cliques of exclusive facts hold
// every member at exactly 0.5), so the answer is decided by rounding
// and repair; those must not depend on where ADMM stopped. After each
// of 60 eight-fact toggle batches the session's removed facts and
// removed weight must equal a fresh session's over the same store.
func TestPSLWarmMatchesCold(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 1000, BridgeRate: 0.1, Seed: 5})
	opts := SolveOptions{Solver: translate.SolverPSL, Parallelism: 1}
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
	removedOf := func(r *Resolution) []string {
		var out []string
		r.Removed.Each(func(f repair.Fact) bool {
			out = append(out, f.Quad.Fact().String())
			return true
		})
		slices.Sort(out)
		return out
	}
	rng := rand.New(rand.NewSource(3))
	live := make([]bool, len(ds.Graph))
	for i := range live {
		live[i] = true
	}
	for batch := 0; batch < 60; batch++ {
		var add, remove []rdf.Quad
		picked := map[int]bool{}
		for len(picked) < 8 {
			i := rng.Intn(len(ds.Graph))
			if picked[i] {
				continue
			}
			picked[i] = true
			if live[i] {
				remove = append(remove, ds.Graph[i])
			} else {
				add = append(add, ds.Graph[i])
			}
			live[i] = !live[i]
		}
		if _, err := s.ApplyBatch(add, remove); err != nil {
			t.Fatal(err)
		}
		warm, err := s.Solve(opts)
		if err != nil {
			t.Fatal(err)
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
		got, want := removedOf(warm), removedOf(cold)
		if !slices.Equal(got, want) || warm.Stats.RemovedWeight != cold.Stats.RemovedWeight {
			diff := 0
			for _, f := range got {
				if _, ok := slices.BinarySearch(want, f); !ok {
					diff++
				}
			}
			t.Fatalf("batch %d: warm session removed %d facts (weight %v), %d of them not removed cold; a fresh session removed %d (weight %v)",
				batch, len(got), warm.Stats.RemovedWeight, diff, len(want), cold.Stats.RemovedWeight)
		}
	}
}
