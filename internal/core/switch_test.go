package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// TestSwitchSolvesLikeFresh pins the kernel-switch rule: a solve under
// another solver, or with ColdStart, starts from no kernel state, so it
// answers exactly as a fresh session over the same facts does, however
// long the session's history under the previous kernel. The history is
// 20 remove/re-add pairs on a clustered session of large components,
// each pair followed by a warm MLN solve. The clusters go to bucket
// elimination, which answers warm as it does cold; so each pair also
// toggles one of 300 spells of an extra player, crowded into 80 years:
// one component of so many mutually overlapping spells that
// elimination's tables exceed their budget, which local search
// re-solves warm. That leaves the session's MLN state off a cold
// start's trajectory; a switch that carried any of it over would show.
func TestSwitchSolvesLikeFresh(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 12, ClusterSize: 60, Seed: 3})
	rng := rand.New(rand.NewSource(5))
	crowd := make(rdf.Graph, 300)
	for k := range crowd {
		start := 2000 + rng.Int63n(80)
		crowd[k] = rdf.NewQuad("player/crowd", "playsFor", fmt.Sprintf("club/crowd%03d", k),
			temporal.MustNew(start, start+1+rng.Int63n(5)), 0.55+0.4*rng.Float64())
	}
	for _, par := range []int{1, 2} {
		// history builds a session and runs the warm MLN solves.
		history := func(t *testing.T) *Session {
			t.Helper()
			s := NewSession()
			if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadGraph(ds.Graph); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadGraph(crowd); err != nil {
				t.Fatal(err)
			}
			opts := SolveOptions{Solver: translate.SolverMLN, Parallelism: par}
			solve := func(step string) {
				t.Helper()
				res, err := s.Solve(opts)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if n := res.Stats.Components.Engines["local"]; n != 1 {
					t.Fatalf("%s: %d components solved by local search, want the crowd's", step, n)
				}
			}
			solve("first solve")
			for i := 0; i < 20; i++ {
				for _, q := range []rdf.Quad{ds.Graph[(i*37)%len(ds.Graph)], crowd[i%len(crowd)]} {
					if !s.RemoveFact(q) {
						t.Fatalf("pair %d: fact %v was not live", i, q)
					}
					if err := s.AddFact(q); err != nil {
						t.Fatal(err)
					}
				}
				solve(fmt.Sprintf("pair %d", i))
			}
			return s
		}
		// likeFresh solves s under opts and compares the answer with a
		// fresh session's over s's facts.
		likeFresh := func(t *testing.T, s *Session, opts SolveOptions, step string) {
			t.Helper()
			opts.Parallelism = par
			res, err := s.Solve(opts)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			fresh := NewSession()
			if err := fresh.LoadProgramText(kgen.ClusteredProgram); err != nil {
				t.Fatal(err)
			}
			if err := fresh.LoadGraph(s.Store().Graph()); err != nil {
				t.Fatal(err)
			}
			opts.ColdStart = false
			want, err := fresh.Solve(opts)
			if err != nil {
				t.Fatalf("%s: fresh solve: %v", step, err)
			}
			if got, want := canonDurable(res), canonDurable(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: session answer differs from a fresh session's: removed %d, fresh %d; kept %d, fresh %d",
					step, len(got.Removed), len(want.Removed), len(got.Kept), len(want.Kept))
			}
		}

		t.Run(fmt.Sprintf("roundtrip/par%d", par), func(t *testing.T) {
			s := history(t)
			for _, solver := range []translate.Solver{
				translate.SolverPSL, translate.SolverMLN, translate.SolverGreedy, translate.SolverMLN,
			} {
				likeFresh(t, s, SolveOptions{Solver: solver}, solver.String())
			}
		})
		t.Run(fmt.Sprintf("coldstart/par%d", par), func(t *testing.T) {
			s := history(t)
			likeFresh(t, s, SolveOptions{Solver: translate.SolverMLN, ColdStart: true}, "cold start")
		})
	}
}
