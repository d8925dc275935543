package translate

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
)

func figure1Store(t testing.TB) *store.Store {
	t.Helper()
	g, err := rdf.ParseGraphString(`
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return st
}

const c2 = "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"

func TestSolverNames(t *testing.T) {
	if SolverMLN.String() != "mln" || SolverPSL.String() != "psl" {
		t.Error("solver names wrong")
	}
	for name, want := range map[string]Solver{
		"mln": SolverMLN, "MLN": SolverMLN, "nrockit": SolverMLN, "rockit": SolverMLN,
		"psl": SolverPSL, "nPSL": SolverPSL,
	} {
		got, err := ParseSolver(name)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSolver("prolog"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestValidateForPSLRejectsHardInference(t *testing.T) {
	hard := rulelang.MustParse("f: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf")
	if err := ValidateFor(SolverPSL, hard); err == nil {
		t.Error("PSL should reject hard inference rules")
	}
	if err := ValidateFor(SolverMLN, hard); err != nil {
		t.Errorf("MLN should accept hard inference rules: %v", err)
	}
	// Hard constraints are fine for both.
	cons := rulelang.MustParse(c2)
	if err := ValidateFor(SolverPSL, cons); err != nil {
		t.Errorf("PSL should accept hard constraints: %v", err)
	}
	// Soft inference rules are fine for both.
	soft := rulelang.MustParse("f: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
	if err := ValidateFor(SolverPSL, soft); err != nil {
		t.Errorf("PSL should accept soft inference rules: %v", err)
	}
}

func TestCheckPredicates(t *testing.T) {
	st := figure1Store(t)
	prog := rulelang.MustParse(`
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c9: quad(x, spouse, y, t) ^ quad(x, spouse, z, t') ^ y != z -> disjoint(t, t') w = inf
`)
	missing := CheckPredicates(st.Stats().Predicates, prog)
	// playsFor present; worksFor (head-only), spouse absent.
	want := map[string]bool{"worksFor": true, "spouse": true}
	if len(missing) != len(want) {
		t.Fatalf("missing = %v", missing)
	}
	for _, m := range missing {
		if !want[m] {
			t.Errorf("unexpected missing predicate %q", m)
		}
	}
}
