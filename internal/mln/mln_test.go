package mln

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/temporal"
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

// mapFull closes g under the program's inference rules, grounds the full
// program and solves it per conflict component on a fresh plan and an
// empty cache.
func mapFull(g *ground.Grounder, prog *logic.Program, opts Options) (*Result, error) {
	if _, err := g.Close(prog); err != nil {
		return nil, err
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		return nil, err
	}
	return MAPGroundComponents(g, cs, opts, nil, NewComponentCache(), engine.NewPlan(g.Atoms(), cs))
}

// mapCPI closes g under the program's inference rules, grounds it fully
// and solves it by cutting-plane inference.
func mapCPI(g *ground.Grounder, prog *logic.Program, opts Options) (*Result, error) {
	if _, err := g.Close(prog); err != nil {
		return nil, err
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		return nil, err
	}
	return CuttingPlane(g.Atoms(), cs, opts)
}

func findAtom(t testing.TB, g *ground.Grounder, compact string) ground.AtomID {
	t.Helper()
	for i := 0; i < g.Atoms().Len(); i++ {
		if g.Atoms().Info(ground.AtomID(i)).Key.String() == compact {
			return ground.AtomID(i)
		}
	}
	t.Fatalf("atom %q not found", compact)
	return -1
}

func TestLogit(t *testing.T) {
	if got := Logit(0.5, 1e-3); got != 0 {
		t.Errorf("Logit(0.5) = %g", got)
	}
	if got := Logit(0.9, 1e-3); math.Abs(got-math.Log(9)) > 1e-12 {
		t.Errorf("Logit(0.9) = %g, want ln 9", got)
	}
	if got := Logit(1.0, 1e-3); math.IsInf(got, 1) || got < 6 {
		t.Errorf("Logit(1.0) = %g, want finite and large", got)
	}
	if got := Logit(0.0, 1e-3); math.IsInf(got, -1) || got > -6 {
		t.Errorf("Logit(0.0) = %g", got)
	}
	if got := Logit(0.7, 1e-3) + Logit(0.3, 1e-3); math.Abs(got) > 1e-12 {
		t.Errorf("logit should be antisymmetric around 0.5, sum = %g", got)
	}
}

// TestRunningExample reproduces Figure 7: constraint c2 removes the
// Napoli fact (weight 0.6) because it clashes with Chelsea (weight 0.9);
// all other facts survive.
func TestRunningExample(t *testing.T) {
	for _, cpi := range []bool{false, true} {
		st := figure1Store(t)
		g := ground.New(st)
		prog := rulelang.MustParse(
			"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
		solveMAP := mapFull
		if cpi {
			solveMAP = mapCPI
		}
		res, err := solveMAP(g, prog, Options{})
		if err != nil {
			t.Fatalf("cpi=%v: MAP: %v", cpi, err)
		}
		if !res.HardSatisfied {
			t.Fatalf("cpi=%v: hard constraints violated", cpi)
		}
		napoli := findAtom(t, g, "(CR, coach, Napoli, [2001,2003])")
		if res.TrueAtom(napoli) {
			t.Errorf("cpi=%v: Napoli fact should be removed", cpi)
		}
		for _, keep := range []string{
			"(CR, coach, Chelsea, [2000,2004])",
			"(CR, coach, Leicester, [2015,2017])",
			"(CR, playsFor, Palermo, [1984,1986])",
			"(CR, birthDate, 1951, [1951,2017])",
		} {
			if !res.TrueAtom(findAtom(t, g, keep)) {
				t.Errorf("cpi=%v: fact %s should be kept", cpi, keep)
			}
		}
		if len(res.RuleViolations) != 0 {
			t.Errorf("cpi=%v: final state violates %v", cpi, res.RuleViolations)
		}
		// The one-shot full-grounding solve is the component pipeline on
		// an empty cache: it must report the decomposition and fill the
		// violation map from its own fold.
		if !cpi && (res.Components == nil || res.Components.Solved != res.Components.Count ||
			res.Components.Count == 0 || res.RuleViolations == nil || !res.Optimal) {
			t.Errorf("one-shot component solve: components %+v, violations %v, optimal %v",
				res.Components, res.RuleViolations, res.Optimal)
		}
	}
}

// TestInferenceExpandsKG: f1 derives worksFor facts in the MAP state.
func TestInferenceExpandsKG(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	prog := rulelang.MustParse("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	worksFor := findAtom(t, g, "(CR, worksFor, Palermo, [1984,1986])")
	if !res.TrueAtom(worksFor) {
		t.Error("derived worksFor atom should be true (rule weight 2.5 > closed-world prior)")
	}
}

// TestDerivedPriorSuppressesUnsupported: without rule support a derived
// atom stays false.
func TestDerivedPriorSuppressesUnsupported(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	// Rule whose body never matches: nothing derives, but force an atom
	// into the table manually to simulate an unsupported candidate.
	prog := rulelang.MustParse("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
	extra := g.Atoms().Intern(rdf.FactKey{S: rdf.NewIRI("CR"), P: rdf.NewIRI("ghost"),
		O: rdf.NewIRI("X"), Interval: temporal.MustNew(1, 2)})
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueAtom(extra) {
		t.Error("unsupported atom should be false under the closed-world prior")
	}
}

// TestConflictBetweenInferenceAndConstraint: deriving the head would
// violate a hard constraint against strong evidence, so MAP prefers to
// drop the weaker body fact.
func TestConflictBetweenInferenceAndConstraint(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewQuad("A", "playsFor", "X", temporal.MustNew(2000, 2001), 0.55))
	st.Add(rdf.NewQuad("A", "bannedFrom", "X", temporal.MustNew(2000, 2001), 0.95))
	g := ground.New(st)
	prog := rulelang.MustParse(`
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf
c:  quad(x, worksFor, y, t) ^ quad(x, bannedFrom, y, t') ^ overlap(t, t') -> false w = inf
`)
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HardSatisfied {
		t.Fatal("hard constraints violated")
	}
	plays := findAtom(t, g, "(A, playsFor, X, [2000,2001])")
	banned := findAtom(t, g, "(A, bannedFrom, X, [2000,2001])")
	if res.TrueAtom(plays) {
		t.Error("weak playsFor fact should be dropped (its hard consequence clashes)")
	}
	if !res.TrueAtom(banned) {
		t.Error("strong bannedFrom fact should be kept")
	}
}

// TestCPIMatchesFullGrounding on a chain of conflicts.
func TestCPIMatchesFullGrounding(t *testing.T) {
	st := store.New()
	teams := []string{"T1", "T2", "T3", "T4", "T5", "T6"}
	for i, team := range teams {
		conf := 0.55 + float64(i%3)*0.15
		st.Add(rdf.NewQuad("P", "coach", team, temporal.MustNew(int64(2000+i), int64(2002+i)), conf))
	}
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")

	gFull := ground.New(st)
	full, err := mapFull(gFull, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gCPI := ground.New(st)
	cpi, err := mapCPI(gCPI, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.HardSatisfied || !cpi.HardSatisfied {
		t.Fatal("both modes must be feasible")
	}
	if math.Abs(full.Cost-cpi.Cost) > 1e-9 {
		t.Errorf("full cost %g != CPI cost %g", full.Cost, cpi.Cost)
	}
	if cpi.GroundClauses > full.GroundClauses {
		t.Errorf("CPI grounded %d clauses, full grounding %d", cpi.GroundClauses, full.GroundClauses)
	}
	if cpi.Rounds < 2 {
		t.Errorf("CPI should take at least 2 rounds, took %d", cpi.Rounds)
	}
}

func TestRuleViolationsCounted(t *testing.T) {
	// A soft constraint that stays violated in the optimum: strong facts
	// on both sides of a weak disjointness constraint.
	st := store.New()
	st.Add(rdf.NewQuad("P", "coach", "A", temporal.MustNew(2000, 2004), 0.95))
	st.Add(rdf.NewQuad("P", "coach", "B", temporal.MustNew(2001, 2003), 0.95))
	g := ground.New(st)
	prog := rulelang.MustParse(
		"soft: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = 0.2")
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleViolations["soft"] == 0 {
		t.Errorf("weak constraint should stay violated against strong evidence: %v", res.RuleViolations)
	}
}

func TestEmptyProgram(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	res, err := mapFull(g, rulelang.MustParse(""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All evidence kept (conf > 0.5 everywhere except Palermo at 0.5,
	// which has zero prior and may land either way).
	for i := 0; i < g.Atoms().Len(); i++ {
		info := g.Atoms().Info(ground.AtomID(i))
		if info.Conf > 0.5 && !res.Truth[i] {
			t.Errorf("fact %v dropped with no constraints", info.Key)
		}
	}
}

func BenchmarkMAPFigure1(b *testing.B) {
	st := figure1Store(b)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ground.New(st)
		if _, err := mapFull(g, prog, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKeepBiasKeepsBoundaryFacts(t *testing.T) {
	// With the keep bias zeroed out (negative sentinel not supported, so
	// use a tiny value) a confidence-0.5 fact has no prior and may drop;
	// with the default bias it must be kept.
	st := figure1Store(t)
	g := ground.New(st)
	prog := rulelang.MustParse("")
	res, err := mapFull(g, prog, Options{KeepBias: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	palermo := findAtom(t, g, "(CR, playsFor, Palermo, [1984,1986])")
	if !res.TrueAtom(palermo) {
		t.Error("keep bias should retain the confidence-0.5 fact")
	}
}

func TestEvidenceClampBoundsCertainFacts(t *testing.T) {
	// A wider clamp weakens certain facts: with clamp 0.3 a conf-1.0 fact
	// has logit ln(0.7/0.3) ≈ 0.85 and can lose against a strong rule.
	if w := Logit(1.0, 0.3); w > 0.9 {
		t.Errorf("clamped logit = %g", w)
	}
	if w := Logit(1.0, 1e-6); w < 10 {
		t.Errorf("tight clamp logit = %g", w)
	}
}

func TestMAPRuntimeRecorded(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	res, err := mapFull(g, rulelang.MustParse(""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Error("runtime not recorded")
	}
}

// TestColdSolveIgnoresOptionsWarm pins where a component's MaxSAT warm
// start comes from: the warm argument alone. A cold solve handed an
// Options.MaxSAT.Warm sized like one of its components must answer as a
// cold solve without it. The fixture is 300 playsFor spells of one
// player crowded into 80 years: one component too wide for bucket
// elimination, so local search — whose trajectory depends on its
// start — solves it.
func TestColdSolveIgnoresOptionsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	crowd := make(rdf.Graph, 300)
	for k := range crowd {
		start := 2000 + rng.Int63n(80)
		crowd[k] = rdf.NewQuad("player/crowd", "playsFor", fmt.Sprintf("club/crowd%03d", k),
			temporal.MustNew(start, start+1+rng.Int63n(5)), 0.55+0.4*rng.Float64())
	}
	prog := rulelang.MustParse(kgen.ClusteredProgram)
	solve := func(opts Options) *Result {
		t.Helper()
		st := store.New()
		if err := st.AddGraph(crowd); err != nil {
			t.Fatal(err)
		}
		res, err := mapFull(ground.New(st), prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := solve(Options{})
	if cold.Components.Engines["local"] != 1 {
		t.Fatalf("engines %v, want the crowd solved by local search", cold.Components.Engines)
	}
	for _, fill := range []bool{false, true} {
		var opts Options
		opts.MaxSAT.Warm = make([]bool, len(crowd))
		for i := range opts.MaxSAT.Warm {
			opts.MaxSAT.Warm[i] = fill
		}
		if got := solve(opts); !reflect.DeepEqual(got.Truth, cold.Truth) || got.Cost != cold.Cost {
			t.Errorf("Options.MaxSAT.Warm all %v moved a cold solve: cost %v, without it %v", fill, got.Cost, cold.Cost)
		}
	}
}
