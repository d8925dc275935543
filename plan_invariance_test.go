package tecore_test

import (
	"math/rand"
	"testing"

	tecore "repro"
)

// The selectivity planner chooses its own join order per rule, so the
// order body atoms are written in must not matter: permuting them has
// to produce the identical Resolution, on a fresh solve and across
// incremental updates. These tests are the determinism contract that
// licenses the planner to reorder at all.

// planProgram extends the football constraints with a three-atom join,
// so the planner has a real ordering decision beyond pairs.
const planProgram = tecore.FootballProgram + `
colleagues: quad(x, playsFor, y, t) ^ quad(z, playsFor, y, u) ^ quad(x, birthDate, b, t') -> overlap(t, u) w = 0.8
`

// permuteBodies returns a copy of prog with every rule body shuffled by
// the seeded generator (conditions and heads untouched — their variable
// sets don't depend on body order).
func permuteBodies(prog *tecore.Program, seed int64) *tecore.Program {
	rng := rand.New(rand.NewSource(seed))
	out := &tecore.Program{Rules: make([]*tecore.Rule, len(prog.Rules))}
	for i, r := range prog.Rules {
		cp := *r
		cp.Body = append(cp.Body[:0:0], r.Body...)
		rng.Shuffle(len(cp.Body), func(a, b int) {
			cp.Body[a], cp.Body[b] = cp.Body[b], cp.Body[a]
		})
		out.Rules[i] = &cp
	}
	return out
}

func planSession(t *testing.T, g tecore.Graph, prog *tecore.Program) *tecore.Session {
	t.Helper()
	s := tecore.NewSession()
	if err := s.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	for _, r := range prog.Rules {
		if err := s.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestPlanInvarianceUnderBodyPermutation(t *testing.T) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 60, NoiseRatio: 0.3, Seed: 17})
	prog, err := tecore.ParseRules(planProgram)
	if err != nil {
		t.Fatal(err)
	}
	probe := tecore.NewQuad("player_3", "playsFor", "perm_club",
		tecore.MustInterval(1999, 2001), 0.6)
	opts := tecore.SolveOptions{Solver: tecore.SolverMLN, Parallelism: 2}

	// Reference trajectory on the program as written: fresh solve, then
	// a single-fact add and remove through the delta path.
	base := planSession(t, ds.Graph, prog)
	want := make([]string, 0, 3)
	for step := 0; step < 3; step++ {
		switch step {
		case 1:
			if err := base.AddFact(probe); err != nil {
				t.Fatal(err)
			}
		case 2:
			base.RemoveFact(probe)
		}
		res, err := base.Solve(opts)
		if err != nil {
			t.Fatalf("base step %d: %v", step, err)
		}
		if step > 0 && !res.Incremental {
			t.Fatalf("base step %d: solve did not take the delta path", step)
		}
		want = append(want, canonResolution(res, -1))
	}

	for seed := int64(1); seed <= 3; seed++ {
		s := planSession(t, ds.Graph, permuteBodies(prog, seed))
		for step := 0; step < 3; step++ {
			switch step {
			case 1:
				if err := s.AddFact(probe); err != nil {
					t.Fatal(err)
				}
			case 2:
				s.RemoveFact(probe)
			}
			res, err := s.Solve(opts)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step > 0 && !res.Incremental {
				t.Fatalf("seed %d step %d: solve did not take the delta path", seed, step)
			}
			if got := canonResolution(res, -1); got != want[step] {
				t.Fatalf("seed %d step %d: resolution diverged under body permutation\ngot:  %s\nwant: %s",
					seed, step, got, want[step])
			}
		}
	}
}
