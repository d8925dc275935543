package tecore_test

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	tecore "repro"
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
c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf
`

// TestQuickstart is the package-documentation flow end to end.
func TestQuickstart(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadGraphText(figure1); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(figure4and6); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []tecore.Solver{tecore.SolverMLN, tecore.SolverPSL} {
		res, err := s.Solve(tecore.SolveOptions{Solver: solver})
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if removed := collect(res.Removed.Each); res.Stats.RemovedFacts != 1 || removed[0].Quad.Object.Value != "Napoli" {
			t.Errorf("%v: removed %v", solver, removed)
		}
		if res.Stats.KeptFacts != 4 {
			t.Errorf("%v: kept %d", solver, res.Stats.KeptFacts)
		}
	}
}

// TestFigure7OnePipeline pins the paper's Figure 7 on Figure 1 + (f1,
// c2) — 4 kept, Napoli removed, worksFor(CR, Palermo) inferred — with
// default options, together with the shape of the pipeline that
// produced it: every solver kernel runs the one session pipeline (plan,
// per-component solve, component repair, live outcome and changelog on
// every solve) and reports the component decomposition of its own solve.
// PSL is the knife-edge: with the default weights
// worksFor's optimum is exactly the 0.5 rounding threshold, so the
// answer must not depend on which side ADMM stopped.
func TestFigure7OnePipeline(t *testing.T) {
	greedy, err := tecore.ParseSolver("greedy")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		opts     tecore.SolveOptions
		inferred int
	}{
		{"mln", tecore.SolveOptions{Solver: tecore.SolverMLN}, 1},
		{"psl", tecore.SolveOptions{Solver: tecore.SolverPSL}, 1},
		{"greedy", tecore.SolveOptions{Solver: greedy}, 0}, // chains hard implications only
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tecore.NewSession()
			if err := s.LoadGraphText(figure1); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadProgramText(incrementalProgram); err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			removed, inferred := collect(res.Removed.Each), collect(res.Inferred.Each)
			if st.KeptFacts != 4 || len(removed) != 1 || removed[0].Quad.Object.Value != "Napoli" {
				t.Errorf("kept %d, removed %v; want 4 kept and Napoli removed", st.KeptFacts, removed)
			}
			if len(inferred) != tc.inferred ||
				(tc.inferred == 1 && inferred[0].Quad.Predicate.Value != "worksFor") {
				t.Errorf("inferred %v, want %d worksFor fact(s)", inferred, tc.inferred)
			}
			if st.Repair.Mode != tecore.RepairComponents || st.Outcome.Mode != tecore.OutcomeLive {
				t.Errorf("read-out ran %s/%s, want %s/%s",
					st.Repair.Mode, st.Outcome.Mode, tecore.RepairComponents, tecore.OutcomeLive)
			}
			if st.Plan == nil || res.Delta == nil {
				t.Errorf("plan %v, delta %v; want both set", st.Plan, res.Delta)
			}
			if st.Components == nil || st.Components.Count != st.Plan.Components || st.Components.Solved != st.Components.Count {
				t.Errorf("components %+v; want all %d of the plan's components solved", st.Components, st.Plan.Components)
			}
		})
	}
}

func TestGraphRoundTripThroughFacade(t *testing.T) {
	g, err := tecore.ParseGraphString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tecore.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := tecore.ParseGraph(&buf)
	if err != nil || len(back) != len(g) {
		t.Fatalf("round trip: %v (%d facts)", err, len(back))
	}
}

func TestRulesFacade(t *testing.T) {
	prog, err := tecore.ParseRules(figure4and6)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	text := tecore.FormatRules(prog)
	if !strings.Contains(text, "disjoint(t, t')") {
		t.Errorf("FormatRules output missing constraint: %q", text)
	}
	back, err := tecore.ParseRules(text)
	if err != nil || len(back.Rules) != 4 {
		t.Fatalf("re-parse: %v", err)
	}
}

func TestConstraintBuilders(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadGraphText(figure1); err != nil {
		t.Fatal(err)
	}
	c, err := tecore.AllenConstraint("c2", "coach", "coach", "disjoint", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(c); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RemovedFacts != 1 {
		t.Errorf("removed = %d", res.Stats.RemovedFacts)
	}
	if _, err := tecore.FunctionalConstraint("c3", "bornIn"); err != nil {
		t.Errorf("FunctionalConstraint: %v", err)
	}
}

func TestGeneratorsThroughFacade(t *testing.T) {
	fb := tecore.GenerateFootball(tecore.FootballConfig{Players: 100, Seed: 1})
	if len(fb.Graph) < 200 {
		t.Errorf("football graph too small: %d", len(fb.Graph))
	}
	wd := tecore.GenerateWikidata(tecore.WikidataConfig{Scale: 0.002, Seed: 1})
	if len(wd.Graph) == 0 {
		t.Error("wikidata graph empty")
	}
	if _, err := tecore.ParseRules(tecore.FootballProgram); err != nil {
		t.Errorf("FootballProgram: %v", err)
	}
	if _, err := tecore.ParseRules(tecore.WikidataProgram); err != nil {
		t.Errorf("WikidataProgram: %v", err)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := tecore.MustInterval(2000, 2004)
	if iv.Duration() != 5 {
		t.Errorf("duration = %d", iv.Duration())
	}
	if _, err := tecore.NewInterval(5, 3); err == nil {
		t.Error("invalid interval accepted")
	}
	q := tecore.NewQuad("CR", "coach", "Chelsea", iv, 0.9)
	if q.Validate() != nil {
		t.Error("facade quad invalid")
	}
}

func TestParseSolverFacade(t *testing.T) {
	s, err := tecore.ParseSolver("psl")
	if err != nil || s != tecore.SolverPSL {
		t.Errorf("ParseSolver = %v, %v", s, err)
	}
}

// TestNoisyFootballRecovery is the E4 shape: at the paper's 1:1 noise
// ratio the resolver removes mostly-noise facts (precision) and catches
// a large share of the injected noise (recall).
func TestNoisyFootballRecovery(t *testing.T) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 120, NoiseRatio: 1.0, Seed: 11})
	s := tecore.NewSession()
	if err := s.LoadGraph(ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
	if err != nil {
		t.Fatal(err)
	}
	tp, fp := 0, 0
	for _, f := range collect(res.Removed.Each) {
		if ds.Noise[f.Quad.Fact()] {
			tp++
		} else {
			fp++
		}
	}
	if tp+fp == 0 {
		t.Fatal("nothing removed from a 1:1 noisy dataset")
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(ds.NoiseCount())
	if precision < 0.6 {
		t.Errorf("precision = %.2f (tp=%d fp=%d)", precision, tp, fp)
	}
	if recall < 0.5 {
		t.Errorf("recall = %.2f (tp=%d noise=%d)", recall, tp, ds.NoiseCount())
	}
	t.Logf("noise recovery: precision=%.3f recall=%.3f removed=%d", precision, recall, tp+fp)
}

// TestGreedyBaselineNeverBeatsMAP is the E10 shape: on conflict datasets
// every MAP kernel — MLN, PSL, and the whole-network cutting-plane
// oracle — must remove at most the confidence mass the greedy baseline
// removes.
func TestGreedyBaselineNeverBeatsMAP(t *testing.T) {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 150, NoiseRatio: 0.6, Seed: 14})
	greedy, err := tecore.ParseSolver("greedy")
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]float64{}
	for _, k := range []struct {
		name string
		opts tecore.SolveOptions
	}{
		{"greedy", tecore.SolveOptions{Solver: greedy}},
		{"mln", tecore.SolveOptions{Solver: tecore.SolverMLN}},
		{"psl", tecore.SolveOptions{Solver: tecore.SolverPSL}},
	} {
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(k.opts)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		weights[k.name] = res.Stats.RemovedWeight
		if res.Stats.RemovedFacts == 0 {
			t.Fatalf("%s removed nothing from a noisy dataset", k.name)
		}
	}
	weights["mln-cpi"] = wholeNetworkReference(t, tecore.FootballProgram, ds.Graph,
		tecore.SolveOptions{Solver: tecore.SolverMLN}).Stats.RemovedWeight
	for _, name := range []string{"mln", "mln-cpi", "psl"} {
		if weights[name] > weights["greedy"]+1e-6 {
			t.Errorf("%s removed more weight (%.3f) than greedy (%.3f)", name, weights[name], weights["greedy"])
		}
	}
	t.Logf("removed weight: greedy=%.2f mln=%.2f mln-cpi=%.2f psl=%.2f",
		weights["greedy"], weights["mln"], weights["mln-cpi"], weights["psl"])
}

// TestPaperShapes pins the paper's answer-quality claims at small size:
// E4, the 1:1 noisy setting, where MLN must recover the injected noise
// with high precision and recall; and E3, where nPSL on a lightly noisy
// FootballDB must make the same removal decisions as nRockIt.
func TestPaperShapes(t *testing.T) {
	removed := func(t *testing.T, ds *tecore.Dataset, solver tecore.Solver) []tecore.Fact {
		t.Helper()
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(tecore.SolveOptions{Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		return collect(res.Removed.Each)
	}

	t.Run("E4", func(t *testing.T) {
		ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 200, NoiseRatio: 1.0, Seed: 2})
		tp, fp := 0, 0
		for _, f := range removed(t, ds, tecore.SolverMLN) {
			if ds.Noise[f.Quad.Fact()] {
				tp++
			} else {
				fp++
			}
		}
		if tp+fp == 0 {
			t.Fatal("nothing removed from a 1:1 noisy dataset")
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(ds.NoiseCount())
		if precision < 0.85 || recall < 0.85 {
			t.Errorf("precision %.3f, recall %.3f (tp=%d fp=%d noise=%d), want both >= 0.85",
				precision, recall, tp, fp, ds.NoiseCount())
		}
		t.Logf("precision=%.3f recall=%.3f", precision, recall)
	})

	t.Run("E3", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			ds := tecore.GenerateFootball(tecore.FootballConfig{Players: 200, NoiseRatio: 0.05, Seed: seed})
			keys := func(fs []tecore.Fact) []string {
				out := make([]string, len(fs))
				for i, f := range fs {
					out[i] = f.Quad.Fact().String()
				}
				sort.Strings(out)
				return out
			}
			mlnRemoved := keys(removed(t, ds, tecore.SolverMLN))
			pslRemoved := keys(removed(t, ds, tecore.SolverPSL))
			if len(mlnRemoved) == 0 {
				t.Fatalf("seed %d: MLN removed nothing from a noisy dataset", seed)
			}
			if !reflect.DeepEqual(mlnRemoved, pslRemoved) {
				t.Errorf("seed %d: MLN and PSL removal sets differ (%d vs %d facts)",
					seed, len(mlnRemoved), len(pslRemoved))
			}
			t.Logf("seed %d: %d removed", seed, len(mlnRemoved))
		}
	})
}

// collect gathers a List's elements through its Each method.
func collect[T any](each func(func(T) bool)) []T {
	var out []T
	each(func(x T) bool {
		out = append(out, x)
		return true
	})
	return out
}
