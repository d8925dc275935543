package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kgen"
	"repro/internal/translate"
)

// TestSwitchSolvesLikeFresh pins the kernel-switch rule: a solve under
// another solver or another tuning, or with ColdStart, starts from no
// kernel state, so it answers exactly as a fresh session over the same
// facts does, however long the session's history under the previous
// kernel. The history is 20 remove/re-add pairs on a clustered session
// of large local-search components, each pair followed by a warm MLN
// solve, which leaves the session's MLN state off a cold start's
// trajectory; a switch that carried any of it over would show.
func TestSwitchSolvesLikeFresh(t *testing.T) {
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: 12, ClusterSize: 60, Seed: 3})
	seed7 := translate.Options{}
	seed7.MLN.MaxSAT.Seed = 7
	for _, par := range []int{1, 2} {
		// history builds a session and runs the warm MLN solves under adv.
		history := func(t *testing.T, adv translate.Options) *Session {
			t.Helper()
			s := NewSession()
			if err := s.LoadProgramText(kgen.ClusteredProgram); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadGraph(ds.Graph); err != nil {
				t.Fatal(err)
			}
			opts := SolveOptions{Solver: translate.SolverMLN, Parallelism: par, Advanced: adv}
			if _, err := s.Solve(opts); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				q := ds.Graph[(i*37)%len(ds.Graph)]
				if !s.RemoveFact(q) {
					t.Fatalf("pair %d: fact %v was not live", i, q)
				}
				if err := s.AddFact(q); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Solve(opts); err != nil {
					t.Fatalf("pair %d: %v", i, err)
				}
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

		t.Run(fmt.Sprintf("tuning/par%d", par), func(t *testing.T) {
			s := history(t, translate.Options{})
			likeFresh(t, s, SolveOptions{Solver: translate.SolverMLN, Advanced: seed7}, "seed 7")
		})
		t.Run(fmt.Sprintf("roundtrip/par%d", par), func(t *testing.T) {
			s := history(t, seed7)
			for _, solver := range []translate.Solver{
				translate.SolverPSL, translate.SolverMLN, translate.SolverGreedy, translate.SolverMLN,
			} {
				likeFresh(t, s, SolveOptions{Solver: solver, Advanced: seed7}, solver.String())
			}
		})
		t.Run(fmt.Sprintf("coldstart/par%d", par), func(t *testing.T) {
			s := history(t, translate.Options{})
			likeFresh(t, s, SolveOptions{Solver: translate.SolverMLN, ColdStart: true}, "cold start")
		})
	}
}
