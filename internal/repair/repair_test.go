package repair

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/mln"
	"repro/internal/psl"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/translate"
)

const figure1 = `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`

const figure4and6 = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`

func loadStore(t testing.TB, text string) *store.Store {
	t.Helper()
	g, err := rdf.ParseGraphString(text)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return st
}

func solve(t testing.TB, data, rules string, solver translate.Solver, opts Options) *Outcome {
	t.Helper()
	return solveWith(t, data, rules, solver, false, opts)
}

// solveWith grounds the full clause set over a fresh grounder, runs one
// solver over it — the component kernel, or a whole-network oracle:
// cutting-plane inference (cpi, MLN only) or the greedy sweep — and reads
// its MAP state out whole-graph.
func solveWith(t testing.TB, data, rules string, solver translate.Solver, cpi bool, opts Options) *Outcome {
	t.Helper()
	_, oc := solveOut(t, data, rules, solver, cpi, opts)
	return oc
}

// solveOut is solveWith returning the solver output too.
func solveOut(t testing.TB, data, rules string, solver translate.Solver, cpi bool, opts Options) (*translate.Output, *Outcome) {
	t.Helper()
	prog := rulelang.MustParse(rules)
	if err := translate.ValidateFor(solver, prog); err != nil {
		t.Fatal(err)
	}
	g := ground.New(loadStore(t, data))
	if _, err := g.Close(prog); err != nil {
		t.Fatal(err)
	}
	out := &translate.Output{Solver: solver, Grounder: g}
	var err error
	if out.Clauses, err = g.GroundProgram(prog); err != nil {
		t.Fatal(err)
	}
	switch {
	case cpi:
		out.MLN, err = mln.CuttingPlane(g.Atoms(), out.Clauses, mln.Options{})
		if err == nil {
			out.Truth = out.MLN.Truth
		}
	case solver == translate.SolverMLN:
		out.MLN, err = mln.MAPGroundComponents(g, out.Clauses, mln.Options{}, nil, mln.NewComponentCache(), engine.NewPlan(g.Atoms(), out.Clauses))
		if err == nil {
			out.Truth = out.MLN.Truth
		}
	case solver == translate.SolverPSL:
		out.PSL, _, err = psl.MAPGroundComponents(g, out.Clauses, psl.Options{}, nil, psl.NewComponentCache(), engine.NewPlan(g.Atoms(), out.Clauses))
		if err == nil {
			out.Truth, out.SoftValues = out.PSL.Truth, out.PSL.Values
		}
	case solver == translate.SolverGreedy:
		out.Truth = baseline.Solve(g.Atoms(), out.Clauses).Truth
	}
	if err != nil {
		t.Fatal(err)
	}
	oc, err := Resolve(out, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, oc
}

// TestFigure7 reproduces the paper's result exactly: fact (5) removed,
// facts (1)-(4) kept, worksFor derived from playsFor — for the MLN and
// PSL component kernels and the two whole-network oracles, cutting-plane
// MLN and the greedy sweep. The greedy baseline chains hard implications
// only, so the soft f1 derives nothing there.
func TestFigure7(t *testing.T) {
	for _, tc := range []struct {
		name     string
		solver   translate.Solver
		cpi      bool
		inferred int
	}{
		{"mln", translate.SolverMLN, false, 1},
		{"psl", translate.SolverPSL, false, 1},
		{"mln-cpi", translate.SolverMLN, true, 1},
		{"greedy", translate.SolverGreedy, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oc := solveWith(t, figure1, figure4and6, tc.solver, tc.cpi, Options{})
			if oc.Stats.TotalFacts != 5 || oc.Stats.KeptFacts != 4 || oc.Stats.RemovedFacts != 1 {
				t.Fatalf("stats = %+v", oc.Stats)
			}
			removed, inferred := collect(oc.Removed.Each), collect(oc.Inferred.Each)
			if len(removed) != 1 || removed[0].Quad.Object.Value != "Napoli" {
				t.Fatalf("removed = %v", removed)
			}
			if oc.Stats.InferredFacts != tc.inferred || len(inferred) != tc.inferred {
				t.Fatalf("inferred = %v, want %d", inferred, tc.inferred)
			}
			for _, f := range inferred {
				if f.Quad.Predicate.Value != "worksFor" || !f.Derived {
					t.Errorf("inferred fact %+v, want a derived worksFor", f)
				}
			}
			g := oc.ConsistentGraph()
			if len(g) != 4+tc.inferred {
				t.Errorf("consistent graph has %d facts", len(g))
			}
			for _, q := range g {
				if q.Object.Value == "Napoli" {
					t.Error("Napoli in consistent graph")
				}
			}
			clusters := collect(oc.Clusters.Each)
			if len(clusters) != 1 || len(clusters[0].Keys) != 2 {
				t.Fatalf("clusters = %v, want one of Chelsea & Napoli", clusters)
			}
			ex := removed[0].Explanations
			if len(ex) != 1 || ex[0].Rule != "c2" || len(ex[0].Partners) != 1 ||
				!strings.Contains(ex[0].Partners[0].String(), "Chelsea") {
				t.Errorf("explanations = %v", ex)
			}
			if n := oc.Stats.RuleViolations["c2"]; n != 0 {
				t.Errorf("hard constraint still violated %d times", n)
			}
		})
	}
}

func TestConflictClusters(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{})
	if oc.Stats.ConflictClusters != 1 {
		t.Fatalf("clusters = %d, want 1", oc.Stats.ConflictClusters)
	}
	cl := collect(oc.Clusters.Each)[0].Keys
	if len(cl) != 2 {
		t.Fatalf("cluster size = %d, want 2 (Chelsea & Napoli)", len(cl))
	}
	joined := cl[0].String() + cl[1].String()
	if !strings.Contains(joined, "Chelsea") || !strings.Contains(joined, "Napoli") {
		t.Errorf("cluster = %v", cl)
	}
}

func TestDerivedConfidencePropagationMLN(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{})
	// worksFor inherits min body conf (0.5) × σ(2.5) ≈ 0.46.
	got := collect(oc.Inferred.Each)[0].Quad.Confidence
	if got < 0.4 || got > 0.5 {
		t.Errorf("derived confidence = %g, want ≈ 0.46", got)
	}
}

func TestDerivedConfidencePSLUsesSoftValue(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverPSL, Options{})
	inferred := collect(oc.Inferred.Each)
	if len(inferred) != 1 {
		t.Fatalf("inferred = %v", inferred)
	}
	got := inferred[0].Quad.Confidence
	if got <= 0 || got > 1 {
		t.Errorf("PSL derived confidence = %g", got)
	}
}

func TestThresholdFiltersDerived(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{Threshold: 0.9})
	if oc.Stats.InferredFacts != 0 || oc.Stats.ThresholdFiltered != 1 {
		t.Errorf("threshold 0.9: stats = %+v", oc.Stats)
	}
	oc = solve(t, figure1, figure4and6, translate.SolverMLN, Options{Threshold: 0.1})
	if oc.Stats.InferredFacts != 1 || oc.Stats.ThresholdFiltered != 0 {
		t.Errorf("threshold 0.1: stats = %+v", oc.Stats)
	}
}

func TestRemovedWeight(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{})
	if oc.Stats.RemovedWeight != 0.6 {
		t.Errorf("RemovedWeight = %g, want 0.6 (Napoli)", oc.Stats.RemovedWeight)
	}
}

func TestNoConstraintsNothingRemoved(t *testing.T) {
	oc := solve(t, figure1, "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5",
		translate.SolverMLN, Options{})
	if oc.Stats.RemovedFacts != 0 || oc.Stats.ConflictClusters != 0 {
		t.Errorf("stats = %+v", oc.Stats)
	}
}

func TestResidualViolationsEmptyForHard(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{})
	if n := oc.Stats.RuleViolations["c2"]; n != 0 {
		t.Errorf("hard constraint still violated %d times", n)
	}
}

func TestFactsSorted(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{})
	kept := collect(oc.Kept.Each)
	for i := 1; i < len(kept); i++ {
		if kept[i-1].AtomID >= kept[i].AtomID {
			t.Fatal("kept facts not sorted by atom id")
		}
	}
}

func TestExplanationsOnRemovedFacts(t *testing.T) {
	oc := solve(t, figure1, figure4and6, translate.SolverMLN, Options{})
	removed := collect(oc.Removed.Each)
	if len(removed) != 1 {
		t.Fatalf("removed = %v", removed)
	}
	ex := removed[0].Explanations
	if len(ex) == 0 {
		t.Fatal("removed fact has no explanation")
	}
	if ex[0].Rule != "c2" {
		t.Errorf("explanation rule = %q", ex[0].Rule)
	}
	if len(ex[0].Partners) != 1 || !strings.Contains(ex[0].Partners[0].String(), "Chelsea") {
		t.Errorf("explanation partners = %v", ex[0].Partners)
	}
	if !strings.Contains(ex[0].String(), "c2 with (CR, coach, Chelsea") {
		t.Errorf("explanation string = %q", ex[0].String())
	}
	// Kept facts carry no explanations.
	for _, f := range collect(oc.Kept.Each) {
		if len(f.Explanations) != 0 {
			t.Errorf("kept fact %v has explanations", f.Quad)
		}
	}
}
