package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

const figure1 = `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`

func newFigure1Session(t testing.TB) *Session {
	t.Helper()
	s := NewSession()
	if err := s.LoadGraphText(figure1); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionEndToEnd(t *testing.T) {
	s := newFigure1Session(t)
	err := s.LoadProgramText(`
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []translate.Solver{translate.SolverMLN, translate.SolverPSL} {
		res, err := s.Solve(SolveOptions{Solver: solver})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if removed := collect(res.Removed.Each); res.Stats.RemovedFacts != 1 || removed[0].Quad.Object.Value != "Napoli" {
			t.Errorf("%v: removed = %v", solver, removed)
		}
		if res.Stats.InferredFacts != 1 {
			t.Errorf("%v: inferred = %d", solver, res.Stats.InferredFacts)
		}
		if res.Output.Solver != solver {
			t.Errorf("solver tag mismatch")
		}
	}
}

func TestSessionLoadReader(t *testing.T) {
	s := NewSession()
	if err := s.LoadGraphReader(strings.NewReader(figure1)); err != nil {
		t.Fatal(err)
	}
	if s.Store().Len() != 5 {
		t.Errorf("store len = %d", s.Store().Len())
	}
}

func TestSessionLoadErrors(t *testing.T) {
	s := NewSession()
	if err := s.LoadGraphText("not a quad"); err == nil {
		t.Error("bad graph text accepted")
	}
	if err := s.LoadProgramText("not a rule ->"); err == nil {
		t.Error("bad program text accepted")
	}
}

func TestSessionAddRule(t *testing.T) {
	s := newFigure1Session(t)
	r, err := AllenConstraint("c2", "coach", "coach", "disjoint", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(r); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RemovedFacts != 1 {
		t.Errorf("removed = %d", res.Stats.RemovedFacts)
	}
	// Invalid rule rejected.
	bad := &logic.Rule{Name: "bad", Weight: 1}
	if err := s.AddRule(bad); err == nil {
		t.Error("invalid rule accepted")
	}
}

func TestSessionPredicates(t *testing.T) {
	s := newFigure1Session(t)
	preds := s.Predicates()
	if len(preds) != 3 || preds[0].Predicate != "coach" {
		t.Errorf("Predicates = %v", preds)
	}
	if err := s.LoadProgramText("quad(x, spouse, y, t) ^ quad(x, spouse, z, t') ^ y != z -> disjoint(t, t')"); err != nil {
		t.Fatal(err)
	}
	missing := s.MissingPredicates()
	if len(missing) != 1 || missing[0] != "spouse" {
		t.Errorf("MissingPredicates = %v", missing)
	}
}

func TestAllenConstraintBuilder(t *testing.T) {
	r, err := AllenConstraint("bornFirst", "birthDate", "worksFor", "before", false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hard() || !r.IsConstraint() || len(r.Body) != 2 || len(r.Conds) != 0 {
		t.Errorf("rule = %v", r)
	}
	hc, ok := r.Head.Cond.(logic.AllenCond)
	if !ok || !hc.Rels.Has(temporal.Before) || hc.Rels.Len() != 1 {
		t.Errorf("head = %#v", r.Head.Cond)
	}
	// distinctObjects adds the y != z guard.
	r2, err := AllenConstraint("", "coach", "coach", "disjoint", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Conds) != 1 {
		t.Errorf("guard missing: %v", r2)
	}
	// Errors.
	if _, err := AllenConstraint("x", "", "coach", "before", false); err == nil {
		t.Error("empty predicate accepted")
	}
	if _, err := AllenConstraint("x", "coach", "coach", "sideways", false); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := AllenConstraint("x", "bad pred", "coach", "before", false); err == nil {
		t.Error("predicate with space accepted")
	}
}

func TestFunctionalConstraintBuilder(t *testing.T) {
	r, err := FunctionalConstraint("c3", "bornIn")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hard() || r.Head.Kind != logic.HeadCond {
		t.Errorf("rule = %v", r)
	}
	cc, ok := r.Head.Cond.(logic.CompareCond)
	if !ok || cc.Op != logic.EQ {
		t.Errorf("head = %#v", r.Head.Cond)
	}
	if _, err := FunctionalConstraint("", "<bad>"); err == nil {
		t.Error("bad predicate accepted")
	}
}

func TestFunctionalConstraintEndToEnd(t *testing.T) {
	s := NewSession()
	err := s.LoadGraphText(`
p bornIn Rome [1950,1950] 0.9
p bornIn Milan [1950,1950] 0.4
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := FunctionalConstraint("c3", "bornIn")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(r); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	if removed := collect(res.Removed.Each); res.Stats.RemovedFacts != 1 || removed[0].Quad.Object.Value != "Milan" {
		t.Errorf("removed = %v", removed)
	}
}

// TestGreedyGroundsOnce: the greedy sweep runs over the session engine's
// clause set, which the read-out shares, so one solve joins each rule
// exactly once.
func TestGreedyGroundsOnce(t *testing.T) {
	s := newFigure1Session(t)
	if err := s.LoadProgramText("c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(SolveOptions{Solver: translate.SolverGreedy, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Ground == nil || len(res.Stats.Ground.Rules) != 1 || res.Stats.Ground.Rules[0].Rule != "c2" {
		t.Fatalf("ground stats = %+v, want one c2 entry", res.Stats.Ground)
	}
	if tasks := res.Stats.Ground.Rules[0].Tasks; tasks != 1 {
		t.Errorf("c2 ran %d join tasks, want 1 (the program was grounded more than once)", tasks)
	}
}

// TestGreedySessionTieBreakMatchesFresh: the greedy sweep breaks
// confidence ties by backing fact, not by atom id. A session interns a
// statement when it is first derived, so a fact asserted later can own
// an older atom than a fact asserted before it; a fresh grounding
// interns facts in store order. Both must keep the same one of two
// equally confident conflicting facts.
func TestGreedySessionTieBreakMatchesFresh(t *testing.T) {
	const program = `
f: quad(x, playsFor, y, t) -> quad(x, coach, y, t) w = inf
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`
	opts := SolveOptions{Solver: translate.SolverGreedy}
	s := NewSession()
	if err := s.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	for _, q := range []rdf.Quad{
		rdf.NewQuad("P", "playsFor", "A", temporal.MustNew(2000, 2003), 0.9), // derives coach A
		rdf.NewQuad("P", "coach", "B", temporal.MustNew(2002, 2005), 0.7),
		rdf.NewQuad("P", "coach", "A", temporal.MustNew(2000, 2003), 0.7), // asserts the derived atom
	} {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(opts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSession()
	if err := fresh.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadGraph(s.Store().Graph()); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := canonDurable(res), canonDurable(want); !reflect.DeepEqual(a, b) {
		t.Fatalf("greedy session diverged from a fresh session\nsession: %+v\nfresh:   %+v", a, b)
	}
}

// TestComponentKernelsAgreeOnFigure7: every kernel removes only the
// Napoli fact, and each output carries its backend detail, decomposition
// included (the greedy sweep's under MLN, whose component loop it runs
// on).
func TestComponentKernelsAgreeOnFigure7(t *testing.T) {
	s := newFigure1Session(t)
	if err := s.LoadProgramText("c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []translate.Solver{translate.SolverMLN, translate.SolverPSL, translate.SolverGreedy} {
		res, err := s.Solve(SolveOptions{Solver: solver})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		out := res.Output
		if out.Solver != solver {
			t.Errorf("solver tag = %v", out.Solver)
		}
		removed := 0
		for i := 0; i < out.Grounder.Atoms().Len(); i++ {
			info := out.Grounder.Atoms().Info(ground.AtomID(i))
			if info.Evidence && !out.Truth[i] {
				removed++
				if !strings.Contains(info.Key.String(), "Napoli") {
					t.Errorf("%v removed %s, want only Napoli", solver, info.Key)
				}
			}
		}
		if removed != 1 {
			t.Errorf("%v removed %d facts, want 1", solver, removed)
		}
		if solver == translate.SolverPSL && out.SoftValues == nil {
			t.Error("PSL output should carry soft values")
		}
		if solver != translate.SolverPSL && (out.MLN == nil || out.MLN.Components == nil) {
			t.Errorf("%v output should carry backend detail, decomposition included", solver)
		}
		if solver == translate.SolverPSL && (out.PSL == nil || out.PSL.Components == nil) {
			t.Error("PSL output should carry backend detail, decomposition included")
		}
	}
}

// TestSolveRejectsInvalidProgramForSolver: a PSL solve of a hard
// inference rule fails the expressivity check before touching the
// session engine, so the session stays usable for the MLN backend —
// including its incremental path across the rejected solve.
func TestSolveRejectsInvalidProgramForSolver(t *testing.T) {
	s := newFigure1Session(t)
	if err := s.LoadProgramText("f: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(SolveOptions{Solver: translate.SolverPSL}); err == nil {
		t.Fatal("Solve should propagate PSL expressivity errors")
	}
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN})
	if err != nil {
		t.Fatalf("MLN solve after a rejected PSL solve: %v", err)
	}
	if res.Stats.InferredFacts != 1 {
		t.Errorf("inferred = %d, want the worksFor fact", res.Stats.InferredFacts)
	}
	if _, err := s.Solve(SolveOptions{Solver: translate.SolverPSL}); err == nil {
		t.Fatal("a second PSL solve should still be rejected")
	}
	if err := s.AddFact(rdf.NewQuad("CR", "coach", "Torino", temporal.MustNew(2010, 2012), 0.8)); err != nil {
		t.Fatal(err)
	}
	res, err = s.Solve(SolveOptions{Solver: translate.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || res.Stats.KeptFacts != 6 {
		t.Errorf("re-solve after the rejected PSL solve: incremental %v, kept %d; want incremental, 6 kept",
			res.Incremental, res.Stats.KeptFacts)
	}
}

// TestStoreLogCompactedEveryKernel: every solver kernel runs inside the
// session pipeline, which compacts the store's change log up to the
// epoch the engine reflects, so a long-lived session solved with any
// kernel does not accumulate history.
func TestStoreLogCompactedEveryKernel(t *testing.T) {
	for _, opts := range []SolveOptions{
		{Solver: translate.SolverMLN},
		{Solver: translate.SolverPSL},
		{Solver: translate.SolverGreedy},
	} {
		t.Run(opts.Solver.String(), func(t *testing.T) {
			s := newFigure1Session(t)
			if err := s.LoadProgramText("c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"); err != nil {
				t.Fatal(err)
			}
			probe := rdf.NewQuad("CR", "coach", "Torino", temporal.MustNew(2010, 2012), 0.8)
			for i := 0; i < 200; i++ {
				if i%2 == 0 {
					if err := s.AddFact(probe); err != nil {
						t.Fatal(err)
					}
				} else if !s.RemoveFact(probe) {
					t.Fatal("probe retraction missed")
				}
				if _, err := s.Solve(opts); err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
			}
			if lag := s.Store().Epoch() - s.Store().CompactedEpoch(); lag > 4 {
				t.Fatalf("store change log lags %d epochs behind after 200 solved updates, want <= 4", lag)
			}
		})
	}
}

func TestThresholdOption(t *testing.T) {
	s := newFigure1Session(t)
	if err := s.LoadProgramText("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN, Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InferredFacts != 0 || res.Stats.ThresholdFiltered != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}
