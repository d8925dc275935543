package maxsat

import (
	"math"
	"math/rand"
	"testing"
)

var inf = math.Inf(1)

func unit(v int32, w float64) Clause { return Clause{Lits: []Lit{{Var: v}}, Weight: w} }

func notBoth(a, b int32) Clause {
	return Clause{Lits: []Lit{{Var: a, Neg: true}, {Var: b, Neg: true}}, Weight: inf}
}

func TestValidate(t *testing.T) {
	bad := []*Problem{
		{NumVars: 1, Clauses: []Clause{{}}},
		{NumVars: 1, Clauses: []Clause{{Lits: []Lit{{Var: 2}}, Weight: 1}}},
		{NumVars: 1, Clauses: []Clause{{Lits: []Lit{{Var: -1}}, Weight: 1}}},
		{NumVars: 1, Clauses: []Clause{{Lits: []Lit{{Var: 0}}, Weight: -1}}},
		{NumVars: 1, Clauses: []Clause{{Lits: []Lit{{Var: 0}}, Weight: math.NaN()}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("problem %d should be invalid", i)
		}
	}
	good := &Problem{NumVars: 2, Clauses: []Clause{unit(0, 1), notBoth(0, 1)}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestEvaluate(t *testing.T) {
	p := &Problem{NumVars: 2, Clauses: []Clause{unit(0, 2), unit(1, 3), notBoth(0, 1)}}
	hv, cost := Evaluate(p, []bool{true, true})
	if hv != 1 || cost != 0 {
		t.Errorf("both true: hv=%d cost=%g", hv, cost)
	}
	hv, cost = Evaluate(p, []bool{true, false})
	if hv != 0 || cost != 3 {
		t.Errorf("keep 0: hv=%d cost=%g", hv, cost)
	}
	hv, cost = Evaluate(p, []bool{false, false})
	if hv != 0 || cost != 5 {
		t.Errorf("none: hv=%d cost=%g", hv, cost)
	}
}

// TestFigure1Shape mirrors the paper's running example: Chelsea (0.9*)
// conflicts with Napoli (0.6*); the optimum drops Napoli.
func TestFigure1Shape(t *testing.T) {
	// Atoms: 0=Chelsea(2.2), 1=Leicester(0.85), 2=Palermo(0.0 logit ~ 0),
	// 3=birth(large), 4=Napoli(0.4).
	p := &Problem{NumVars: 5, Clauses: []Clause{
		unit(0, 2.2), unit(1, 0.85), unit(2, 0.001), unit(3, 6.9), unit(4, 0.4),
		notBoth(0, 4),
	}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.HardSatisfied || !sol.Optimal {
		t.Fatalf("sol = %+v", sol)
	}
	want := []bool{true, true, true, true, false}
	for i, w := range want {
		if sol.Assignment[i] != w {
			t.Errorf("atom %d = %v, want %v", i, sol.Assignment[i], w)
		}
	}
	if sol.Cost != 0.4 {
		t.Errorf("cost = %g, want 0.4", sol.Cost)
	}
}

func TestExactOptimalChain(t *testing.T) {
	// Chain of conflicts: 0-1, 1-2, 2-3 with weights favouring even atoms.
	p := &Problem{NumVars: 4, Clauses: []Clause{
		unit(0, 5), unit(1, 1), unit(2, 5), unit(3, 1),
		notBoth(0, 1), notBoth(1, 2), notBoth(2, 3),
	}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal || sol.Cost != 2 {
		t.Fatalf("sol = %+v, want optimal cost 2", sol)
	}
	if !sol.Assignment[0] || sol.Assignment[1] || !sol.Assignment[2] || sol.Assignment[3] {
		t.Errorf("assignment = %v, want T F T F", sol.Assignment)
	}
}

func TestHardInferenceClause(t *testing.T) {
	// Evidence a0; hard rule a0 -> a1; hard constraint !a1 | !a2; evidence a2 weak.
	p := &Problem{NumVars: 3, Clauses: []Clause{
		unit(0, 5), unit(2, 1),
		{Lits: []Lit{{Var: 0, Neg: true}, {Var: 1}}, Weight: inf},
		notBoth(1, 2),
	}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.HardSatisfied || !sol.Optimal {
		t.Fatalf("sol = %+v", sol)
	}
	// Optimal: keep a0, derive a1, drop a2 (cost 1).
	if !sol.Assignment[0] || !sol.Assignment[1] || sol.Assignment[2] {
		t.Errorf("assignment = %v, want T T F", sol.Assignment)
	}
	if sol.Cost != 1 {
		t.Errorf("cost = %g", sol.Cost)
	}
}

func TestUnsatisfiableHard(t *testing.T) {
	p := &Problem{NumVars: 1, Clauses: []Clause{
		{Lits: []Lit{{Var: 0}}, Weight: inf},
		{Lits: []Lit{{Var: 0, Neg: true}}, Weight: inf},
	}}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.HardSatisfied {
		t.Error("contradiction reported as satisfied")
	}
}

func TestEmptyProblem(t *testing.T) {
	sol, err := Solve(&Problem{}, Options{})
	if err != nil || !sol.HardSatisfied || !sol.Optimal {
		t.Errorf("empty problem: %+v, %v", sol, err)
	}
}

func TestSoftOnlyAllSatisfiable(t *testing.T) {
	p := &Problem{NumVars: 3, Clauses: []Clause{unit(0, 1), unit(1, 2), unit(2, 3)}}
	sol, err := Solve(p, Options{})
	if err != nil || sol.Cost != 0 {
		t.Fatalf("sol = %+v, %v", sol, err)
	}
	for i, v := range sol.Assignment {
		if !v {
			t.Errorf("var %d should be true", i)
		}
	}
}

func TestNegativeUnitPreference(t *testing.T) {
	// Soft negative unit should push the variable false.
	p := &Problem{NumVars: 2, Clauses: []Clause{
		{Lits: []Lit{{Var: 0, Neg: true}}, Weight: 2},
		unit(1, 1),
	}}
	sol, err := Solve(p, Options{})
	if err != nil || sol.Assignment[0] || !sol.Assignment[1] || sol.Cost != 0 {
		t.Errorf("sol = %+v, %v", sol, err)
	}
}

func TestLocalSearchLargeConflictGraph(t *testing.T) {
	// 400 pairs (a_i, b_i): hard conflict within each pair, weight prefers
	// a. Optimum keeps every a, drops every b: cost = sum of b weights.
	rng := rand.New(rand.NewSource(7))
	var p Problem
	wantCost := 0.0
	for i := 0; i < 400; i++ {
		a := int32(2 * i)
		b := int32(2*i + 1)
		wb := 0.1 + rng.Float64() // in (0.1, 1.1)
		wa := wb + 0.5 + rng.Float64()
		p.Clauses = append(p.Clauses, unit(a, wa), unit(b, wb), notBoth(a, b))
		wantCost += wb
	}
	p.NumVars = 800
	// Solve would eliminate these independent pairs exactly; the test
	// is of the walk.
	sol := solveLocal(&p, Options{Seed: 3}.withDefaults(p.NumVars))
	if !sol.HardSatisfied {
		t.Fatal("local search failed to reach feasibility")
	}
	if sol.Cost > wantCost*1.02+1e-9 {
		t.Errorf("cost = %g, optimum %g (>2%% off)", sol.Cost, wantCost)
	}
}

// TestLocalMatchesExactProperty compares the two engines on random small
// instances: local search must be feasible whenever exact is, and within
// a small factor of the optimal cost.
func TestLocalMatchesExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		nv := 4 + rng.Intn(8)
		var p Problem
		p.NumVars = nv
		nc := 3 + rng.Intn(12)
		for i := 0; i < nc; i++ {
			var c Clause
			width := 1 + rng.Intn(3)
			for j := 0; j < width; j++ {
				c.Lits = append(c.Lits, Lit{Var: int32(rng.Intn(nv)), Neg: rng.Intn(2) == 0})
			}
			if rng.Intn(3) == 0 {
				c.Weight = inf
			} else {
				c.Weight = 0.1 + rng.Float64()*3
			}
			p.Clauses = append(p.Clauses, c)
		}
		exact, complete := solveExact(&p, Options{NodeLimit: 1 << 20})
		if !complete {
			continue
		}
		local := solveLocal(&p, Options{}.withDefaults(nv))
		if exact.HardSatisfied && !local.HardSatisfied {
			t.Fatalf("trial %d: exact feasible but local not\nproblem=%+v", trial, p)
		}
		if exact.HardSatisfied && local.Cost < exact.Cost-1e-9 {
			t.Fatalf("trial %d: local cost %g beats proven optimum %g", trial, local.Cost, exact.Cost)
		}
		if exact.HardSatisfied && local.Cost > exact.Cost+2.0 {
			t.Errorf("trial %d: local cost %g far from optimum %g", trial, local.Cost, exact.Cost)
		}
		// Verify reported costs against Evaluate.
		hv, cost := Evaluate(&p, exact.Assignment)
		if (hv == 0) != exact.HardSatisfied || math.Abs(cost-exact.Cost) > 1e-9 {
			t.Fatalf("trial %d: exact solution self-report wrong: hv=%d cost=%g vs %+v", trial, hv, cost, exact)
		}
	}
}

func TestExactRespectsNodeLimit(t *testing.T) {
	// A 26-var instance with tiny node limit must fall back (complete=false).
	rng := rand.New(rand.NewSource(5))
	var p Problem
	p.NumVars = 26
	for i := 0; i < 120; i++ {
		var c Clause
		for j := 0; j < 3; j++ {
			c.Lits = append(c.Lits, Lit{Var: int32(rng.Intn(26)), Neg: rng.Intn(2) == 0})
		}
		c.Weight = 1
		p.Clauses = append(p.Clauses, c)
	}
	_, complete := solveExact(&p, Options{NodeLimit: 10})
	if complete {
		t.Error("node limit 10 should not complete on 26 vars")
	}
	// Full Solve still returns a solution via local search.
	sol, err := Solve(&p, Options{NodeLimit: 10})
	if err != nil || sol == nil {
		t.Fatalf("Solve fallback failed: %v", err)
	}
}

func TestSolveDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var p Problem
	p.NumVars = 120
	for i := 0; i < 110; i++ {
		a, b := int32(rng.Intn(120)), int32(rng.Intn(120))
		if a == b {
			continue
		}
		p.Clauses = append(p.Clauses, unit(a, rng.Float64()+0.1), notBoth(a, b))
	}
	s1, err1 := Solve(&p, Options{Seed: 42})
	s2, err2 := Solve(&p, Options{Seed: 42})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.Cost != s2.Cost {
		t.Errorf("same seed, different cost: %g vs %g", s1.Cost, s2.Cost)
	}
	for i := range s1.Assignment {
		if s1.Assignment[i] != s2.Assignment[i] {
			t.Fatalf("same seed, different assignment at %d", i)
		}
	}
}

func BenchmarkSolveConflictPairs1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var p Problem
	for i := 0; i < 1000; i++ {
		a := int32(2 * i)
		c := int32(2*i + 1)
		p.Clauses = append(p.Clauses, unit(a, 1+rng.Float64()), unit(c, rng.Float64()), notBoth(a, c))
	}
	p.NumVars = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(&p, Options{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// exact20VarsProblem is a random 20-variable, 60-clause binary instance
// the exact engine proves optimal.
func exact20VarsProblem() *Problem {
	rng := rand.New(rand.NewSource(3))
	p := &Problem{NumVars: 20}
	for i := 0; i < 60; i++ {
		var c Clause
		for j := 0; j < 2; j++ {
			c.Lits = append(c.Lits, Lit{Var: int32(rng.Intn(20)), Neg: rng.Intn(2) == 0})
		}
		c.Weight = rng.Float64()
		p.Clauses = append(p.Clauses, c)
	}
	return p
}

func BenchmarkExact20Vars(b *testing.B) {
	p := exact20VarsProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, complete := solveExact(p, Options{NodeLimit: 1 << 21}); !complete {
			b.Fatal("incomplete")
		}
	}
}
