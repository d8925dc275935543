package psl

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ground"
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
// program and solves it per conflict component, without warm state, on
// a fresh plan and an empty cache.
func mapFull(g *ground.Grounder, prog *logic.Program, opts Options) (*Result, error) {
	if _, err := g.Close(prog); err != nil {
		return nil, err
	}
	cs, err := g.GroundProgram(prog)
	if err != nil {
		return nil, err
	}
	res, _, err := MAPGroundComponents(g, cs, opts, nil, NewComponentCache(), engine.NewPlan(g.Atoms(), cs))
	return res, err
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

// TestRunningExample: nPSL agrees with nRockIt on Figure 7 — the Napoli
// fact is removed, all others stay.
func TestRunningExample(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	res, err := mapFull(g, prog, Options{Squared: true})
	if err != nil {
		t.Fatal(err)
	}
	napoli := findAtom(t, g, "(CR, coach, Napoli, [2001,2003])")
	if res.TrueAtom(napoli) {
		t.Errorf("Napoli fact should be removed (value %.3f)", res.Values[napoli])
	}
	for _, keep := range []string{
		"(CR, coach, Chelsea, [2000,2004])",
		"(CR, coach, Leicester, [2015,2017])",
		"(CR, playsFor, Palermo, [1984,1986])",
		"(CR, birthDate, 1951, [1951,2017])",
	} {
		id := findAtom(t, g, keep)
		if !res.TrueAtom(id) {
			t.Errorf("fact %s should be kept (value %.3f)", keep, res.Values[id])
		}
	}
}

// TestSoftValuesOrdered: within the conflicting pair, the stronger fact
// gets the higher soft truth value.
func TestSoftValuesOrdered(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chelsea := findAtom(t, g, "(CR, coach, Chelsea, [2000,2004])")
	napoli := findAtom(t, g, "(CR, coach, Napoli, [2001,2003])")
	if res.Values[chelsea] <= res.Values[napoli] {
		t.Errorf("Chelsea (%.3f) should dominate Napoli (%.3f)", res.Values[chelsea], res.Values[napoli])
	}
	leicester := findAtom(t, g, "(CR, coach, Leicester, [2015,2017])")
	if res.Values[leicester] < 0.6 {
		t.Errorf("unconstrained Leicester should stay near its confidence, got %.3f", res.Values[leicester])
	}
}

func TestConvergenceOnUnconstrained(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	res, err := mapFull(g, rulelang.MustParse(""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("no potentials: should converge immediately, residuals %g/%g",
			res.PrimalResidual, res.DualResidual)
	}
	// Values equal the biased prior targets exactly (only priors act).
	for i := 0; i < g.Atoms().Len(); i++ {
		info := g.Atoms().Info(ground.AtomID(i))
		want := math.Min(info.Conf+0.05, 1)
		if math.Abs(res.Values[i]-want) > 1e-6 {
			t.Errorf("atom %v: value %.4f, want %.4f", info.Key, res.Values[i], want)
		}
	}
}

func TestInferenceRaisesDerivedAtom(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	prog := rulelang.MustParse("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 4")
	res, err := mapFull(g, prog, Options{Squared: true})
	if err != nil {
		t.Fatal(err)
	}
	worksFor := findAtom(t, g, "(CR, worksFor, Palermo, [1984,1986])")
	plays := findAtom(t, g, "(CR, playsFor, Palermo, [1984,1986])")
	if res.Values[worksFor] < res.Values[plays]-0.25 {
		t.Errorf("derived worksFor (%.3f) should track its premise (%.3f)",
			res.Values[worksFor], res.Values[plays])
	}
}

func TestHardRepairRestoresFeasibility(t *testing.T) {
	// Two equally strong conflicting facts round to (true, true); the
	// repair pass must drop one.
	st := store.New()
	st.Add(rdf.NewQuad("P", "coach", "A", temporal.MustNew(2000, 2004), 0.8))
	st.Add(rdf.NewQuad("P", "coach", "B", temporal.MustNew(2001, 2003), 0.8))
	g := ground.New(st)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := findAtom(t, g, "(P, coach, A, [2000,2004])")
	b := findAtom(t, g, "(P, coach, B, [2001,2003])")
	if res.TrueAtom(a) && res.TrueAtom(b) {
		t.Error("repair pass failed: both conflicting facts kept")
	}
	if !res.TrueAtom(a) && !res.TrueAtom(b) {
		t.Error("repair dropped both facts; one suffices")
	}
}

func TestProxLinearHinge(t *testing.T) {
	// Single-var potential w·max(0, z - 0.5), prox at v.
	h := hinge{vars: []int32{0}, coef: []float64{1}, d: -0.5, w: 1}
	v := []float64{0.3}
	proxHinge(&h, v, 1)
	if v[0] != 0.3 {
		t.Errorf("inactive hinge moved v to %g", v[0])
	}
	// Active region, full step: v=2.0, step w/rho = 1 → 1.0; c(v-step)+d = 0.5 >= 0 → v=1.0.
	v = []float64{2.0}
	proxHinge(&h, v, 1)
	if math.Abs(v[0]-1.0) > 1e-12 {
		t.Errorf("full step: got %g, want 1.0", v[0])
	}
	// Projection: v=0.6, full step 1 would overshoot → project to 0.5.
	v = []float64{0.6}
	proxHinge(&h, v, 1)
	if math.Abs(v[0]-0.5) > 1e-12 {
		t.Errorf("projection: got %g, want 0.5", v[0])
	}
}

func TestProxSquaredHinge(t *testing.T) {
	h := hinge{vars: []int32{0}, coef: []float64{1}, d: -0.5, w: 2, sq: true}
	// Inactive below the hinge.
	v := []float64{0.2}
	proxHinge(&h, v, 1)
	if v[0] != 0.2 {
		t.Errorf("inactive squared hinge moved v")
	}
	// Active: z = v - (2w(v-0.5))/(1+2w) = 1 - (4*0.5)/5 = 0.6.
	v = []float64{1.0}
	proxHinge(&h, v, 1)
	if math.Abs(v[0]-0.6) > 1e-12 {
		t.Errorf("squared prox: got %g, want 0.6", v[0])
	}
	// Optimality check via finite differences: objective
	// f(z) = w·max(0,z-0.5)² + (ρ/2)(z-v)² minimised at returned z.
	obj := func(z float64) float64 {
		hd := math.Max(0, z-0.5)
		return 2*hd*hd + 0.5*(z-1.0)*(z-1.0)
	}
	z := v[0]
	if obj(z) > obj(z+1e-4) || obj(z) > obj(z-1e-4) {
		t.Errorf("prox result %g is not a local minimum", z)
	}
}

func TestDiscretizeAndRepairCounts(t *testing.T) {
	vals := []float64{0.9, 0.49, 0.5}
	truth := discretize(vals, 0.5, 0)
	if !truth[0] || truth[1] || !truth[2] {
		t.Errorf("discretize = %v", truth)
	}
	// Hard potential: !a0 | !a2 (both true → violated); repair drops the
	// lower-valued atom 2.
	pots := []hinge{{vars: []int32{0, 2}, coef: []float64{1, 1}, d: -1, w: 50, hard: true}}
	flips := repairHard(truth, vals, []float64{0.9, 0.9, 0.9}, pots, 1e-4)
	if flips != 1 || truth[2] || !truth[0] {
		t.Errorf("repair: flips=%d truth=%v", flips, truth)
	}
}

func TestHingeSatisfied(t *testing.T) {
	// clause a0 ∨ !a1 → coef[-1, +1].
	h := hinge{vars: []int32{0, 1}, coef: []float64{-1, 1}, d: 0}
	if !hingeSatisfied(&h, []bool{true, true}) {
		t.Error("a0 true should satisfy")
	}
	if !hingeSatisfied(&h, []bool{false, false}) {
		t.Error("!a1 should satisfy")
	}
	if hingeSatisfied(&h, []bool{false, true}) {
		t.Error("a0 false, a1 true violates")
	}
}

// TestScalesLinearly is a smoke test that ADMM handles a few thousand
// potentials and converges.
func TestManyPotentials(t *testing.T) {
	st := store.New()
	for i := 0; i < 500; i++ {
		team1 := "T" + string(rune('A'+i%20)) + string(rune('A'+(i/20)%20))
		subj := "P" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		st.Add(rdf.NewQuad(subj, "coach", team1, temporal.MustNew(int64(2000+i%5), int64(2003+i%5)), 0.6+0.3*float64(i%2)))
		st.Add(rdf.NewQuad(subj, "coach", team1+"x", temporal.MustNew(int64(2001+i%5), int64(2004+i%5)), 0.55))
	}
	g := ground.New(st)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	res, err := mapFull(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Potentials < 500 {
		t.Errorf("expected ≥500 potentials, got %d", res.Potentials)
	}
	// Feasibility after repair: no hard potential violated.
	for _, keep := range res.Truth {
		_ = keep
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
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

func TestSquaredVsLinearBothResolveConflict(t *testing.T) {
	st := figure1Store(t)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	for _, squared := range []bool{false, true} {
		g := ground.New(st)
		res, err := mapFull(g, prog, Options{Squared: squared})
		if err != nil {
			t.Fatalf("squared=%v: %v", squared, err)
		}
		napoli := findAtom(t, g, "(CR, coach, Napoli, [2001,2003])")
		if res.TrueAtom(napoli) {
			t.Errorf("squared=%v: Napoli kept", squared)
		}
	}
}

func TestHardWeightScalesPressure(t *testing.T) {
	// A larger HardWeight enforces the relaxed hard constraint more
	// tightly: the hinge Chelsea + Napoli − 1 it penalises shrinks. At the
	// optimum the priors (weight 5) balance a linear hinge of weight hw,
	// so each fact sits min(hw/10, its share of the overlap) below its
	// target, and the violation is 0.2 at hw = 2 and 0 once hw ≥ 3.
	st := figure1Store(t)
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	violation := func(hw float64) float64 {
		g := ground.New(st)
		res, err := mapFull(g, prog, Options{HardWeight: hw})
		if err != nil {
			t.Fatal(err)
		}
		chelsea := findAtom(t, g, "(CR, coach, Chelsea, [2000,2004])")
		napoli := findAtom(t, g, "(CR, coach, Napoli, [2001,2003])")
		return res.Values[chelsea] + res.Values[napoli] - 1
	}
	weak, strong := violation(2), violation(100)
	if math.Abs(weak-0.2) > 1e-3 {
		t.Errorf("violation at hw=2 is %.4f, want 0.2", weak)
	}
	if math.Abs(strong) > 1e-3 {
		t.Errorf("violation at hw=100 is %.4f, want 0", strong)
	}
}

func TestThresholdOptionChangesRounding(t *testing.T) {
	st := figure1Store(t)
	g := ground.New(st)
	res, err := mapFull(g, rulelang.MustParse(""), Options{Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// Only the conf-1.0 birthDate fact clears a 0.99 threshold.
	trueCount := 0
	for _, v := range res.Truth {
		if v {
			trueCount++
		}
	}
	if trueCount != 1 {
		t.Errorf("threshold 0.99 kept %d atoms, want 1", trueCount)
	}
}

// TestTieBreakIndependentOfTrajectory: three equally confident, pairwise
// exclusive facts have one optimum with every value at exactly 0.5, so
// which fact survives is decided by rounding and repair alone. The
// answer must not depend on where ADMM stopped: the same under ρ = 1
// and ρ = 10, solved cold, and warm-started from the iterates of a
// neighbouring problem (a fourth, stronger fact just retracted; the
// triangle assembled one fact per solve).
func TestTieBreakIndependentOfTrajectory(t *testing.T) {
	prog := rulelang.MustParse(
		"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
	triangle := []rdf.Quad{
		rdf.NewQuad("P", "coach", "A", temporal.MustNew(2000, 2004), 0.8),
		rdf.NewQuad("P", "coach", "B", temporal.MustNew(2001, 2005), 0.8),
		rdf.NewQuad("P", "coach", "C", temporal.MustNew(2002, 2006), 0.8),
	}
	extra := rdf.NewQuad("P", "coach", "D", temporal.MustNew(2003, 2004), 0.9)
	kept := func(p *pipeline, res *Result) string {
		out := ""
		for _, name := range []string{"(P, coach, A, [2000,2004])", "(P, coach, B, [2001,2005])", "(P, coach, C, [2002,2006])"} {
			a := findAtom(t, p.g, name)
			if d := math.Abs(res.Values[a] - 0.5); d > 1e-3 {
				t.Fatalf("%s: soft value %.6f, want 0.5", name, res.Values[a])
			}
			if res.Truth[a] {
				out += name
			}
		}
		return out
	}
	add := func(st *store.Store, qs ...rdf.Quad) {
		for _, q := range qs {
			if _, err := st.Add(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := ""
	for _, rho := range []float64{1, 10} {
		opts := Options{Rho: rho, Parallelism: 1}
		answers := map[string]string{}

		st := store.New()
		add(st, triangle...)
		p := newPipeline(t, st, prog, true)
		res, _ := p.solve(t, opts, nil)
		answers["cold"] = kept(p, res)

		st = store.New()
		add(st, append(triangle, extra)...)
		p = newPipeline(t, st, prog, true)
		_, warm := p.solve(t, opts, nil)
		st.Remove(extra)
		res, _ = p.solve(t, opts, warm)
		answers["warm after retraction"] = kept(p, res)

		st = store.New()
		p = newPipeline(t, st, prog, true)
		warm = nil
		for _, q := range triangle {
			add(st, q)
			res, warm = p.solve(t, opts, warm)
		}
		answers["warm, one fact per solve"] = kept(p, res)

		for how, got := range answers {
			if want == "" {
				want = got
			}
			if got != want {
				t.Errorf("ρ = %g, %s: kept %q, want %q", rho, how, got, want)
			}
		}
	}
	if strings.Count(want, "(") != 1 {
		t.Errorf("kept %q, want exactly one of the three", want)
	}
}
