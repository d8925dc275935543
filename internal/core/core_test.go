package core

import (
	"strings"
	"testing"

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
		if res.Stats.RemovedFacts != 1 || res.Removed[0].Quad.Object.Value != "Napoli" {
			t.Errorf("%v: removed = %v", solver, res.Removed)
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
	if res.Stats.RemovedFacts != 1 || res.Removed[0].Quad.Object.Value != "Milan" {
		t.Errorf("removed = %v", res.Removed)
	}
}

func TestCheckAllenSatisfiable(t *testing.T) {
	before := temporal.NewRelationSet(temporal.Before)
	ok := CheckAllenSatisfiable(3, []AllenRestriction{
		{I: 0, J: 1, Rels: before}, {I: 1, J: 2, Rels: before},
	})
	if !ok {
		t.Error("consistent chain rejected")
	}
	bad := CheckAllenSatisfiable(3, []AllenRestriction{
		{I: 0, J: 1, Rels: before}, {I: 1, J: 2, Rels: before}, {I: 2, J: 0, Rels: before},
	})
	if bad {
		t.Error("before-cycle accepted")
	}
	empty := CheckAllenSatisfiable(2, []AllenRestriction{
		{I: 0, J: 1, Rels: before}, {I: 0, J: 1, Rels: temporal.NewRelationSet(temporal.After)},
	})
	if empty {
		t.Error("contradictory edge accepted")
	}
}

func TestCuttingPlaneOption(t *testing.T) {
	s := newFigure1Session(t)
	if err := s.LoadProgramText("c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(SolveOptions{Solver: translate.SolverMLN, CuttingPlane: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.MLN.Rounds < 2 {
		t.Errorf("CPI rounds = %d, want ≥ 2", res.Output.MLN.Rounds)
	}
	if res.Stats.RemovedFacts != 1 {
		t.Errorf("removed = %d", res.Stats.RemovedFacts)
	}
}

// TestGreedyGroundsOnce: the greedy baseline hands its clause set to the
// whole-graph read-out, so one solve joins each rule exactly once.
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

var _ = rdf.Graph{} // keep the rdf import for helper extensions
