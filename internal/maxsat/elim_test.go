package maxsat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// smallProblem builds a random instance over nv variables: clauses of
// one to three literals, a third of them hard.
func smallProblem(rng *rand.Rand, nv int) *Problem {
	p := &Problem{NumVars: nv}
	for i, nc := 0, 3+rng.Intn(3*nv); i < nc; i++ {
		var c Clause
		for j, width := 0, 1+rng.Intn(3); j < width; j++ {
			c.Lits = append(c.Lits, Lit{Var: int32(rng.Intn(nv)), Neg: rng.Intn(2) == 0})
		}
		c.Weight = 0.1 + rng.Float64()*3
		if rng.Intn(3) == 0 {
			c.Weight = inf
		}
		p.Clauses = append(p.Clauses, c)
	}
	return p
}

// withContradiction adds the four hard clauses over two variables that
// no assignment satisfies.
func withContradiction(p *Problem, a, b int32) *Problem {
	for _, na := range []bool{false, true} {
		for _, nb := range []bool{false, true} {
			p.Clauses = append(p.Clauses, Clause{Lits: []Lit{{Var: a, Neg: na}, {Var: b, Neg: nb}}, Weight: inf})
		}
	}
	return p
}

// clique builds n variables with distinct positive unit priors and a
// hard ¬a ∨ ¬b between every two: n mutually overlapping facts.
func clique(n int) *Problem {
	p := &Problem{NumVars: n}
	for i := 0; i < n; i++ {
		p.Clauses = append(p.Clauses, unit(int32(i), 1+0.01*float64(i)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.Clauses = append(p.Clauses, notBoth(int32(i), int32(j)))
		}
	}
	return p
}

// bridgedComponents joins cold-dense-shaped components of the given
// sizes into one problem, each linked to the next by a hard clause
// between a fact of each, as the clustered workload's bridge facts merge
// two players' clusters.
func bridgedComponents(seed int64, sizes ...int) *Problem {
	p := &Problem{}
	prev := int32(-1)
	for i, n := range sizes {
		base := int32(p.NumVars)
		for _, c := range denseComponent(seed+int64(i), n).Clauses {
			c.Lits = slices.Clone(c.Lits)
			for k := range c.Lits {
				c.Lits[k].Var += base
			}
			p.Clauses = append(p.Clauses, c)
		}
		p.NumVars += n
		if prev >= 0 {
			p.Clauses = append(p.Clauses, notBoth(prev, base))
		}
		prev = base + int32(n) - 1
	}
	return p
}

// TestElimMatchesExact checks the elimination engine against the
// branch-and-bound on small random instances, instances repeating a
// variable (in one phase or both) and instances whose hard clauses are
// unsatisfiable: the same feasibility, the same optimal cost, and a
// self-reported cost equal to Evaluate's.
func TestElimMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var problems []*Problem
	for i := 0; i < 120; i++ {
		problems = append(problems, smallProblem(rng, 3+rng.Intn(12)))
	}
	for seed := int64(1); seed <= 30; seed++ {
		problems = append(problems, repeatedVarProblem(600+seed, 6+int(seed%10), 10+int(3*seed)))
	}
	for i := 0; i < 20; i++ {
		p := smallProblem(rng, 4+rng.Intn(8))
		problems = append(problems, withContradiction(p, int32(rng.Intn(p.NumVars)), int32(rng.Intn(p.NumVars))))
	}
	infeasible := 0
	for i, p := range problems {
		exact, complete := solveExact(p, Options{}.withDefaults(p.NumVars))
		if !complete {
			t.Fatalf("problem %d: exact search did not complete", i)
		}
		sol, ok := solveElim(p)
		if ok != exact.HardSatisfied {
			t.Fatalf("problem %d: elimination feasible=%v, branch-and-bound %v", i, ok, exact.HardSatisfied)
		}
		if !ok {
			infeasible++
			continue
		}
		hv, cost := Evaluate(p, sol.Assignment)
		if hv != 0 || !sol.HardSatisfied || cost != sol.Cost {
			t.Fatalf("problem %d: self-report wrong: hv=%d cost=%g sol=%+v", i, hv, cost, sol)
		}
		if math.Abs(sol.Cost-exact.Cost) > 1e-9 {
			t.Fatalf("problem %d: elimination cost %.12g, optimum %.12g", i, sol.Cost, exact.Cost)
		}
		if !sol.Optimal || sol.Nodes != 0 || sol.Flips != 0 {
			t.Fatalf("problem %d: solution fields %+v", i, sol)
		}
	}
	if infeasible < 20 || infeasible == len(problems) {
		t.Fatalf("%d of %d problems infeasible: the family lost its mix", infeasible, len(problems))
	}
	t.Logf("%d problems, %d with unsatisfiable hard clauses", len(problems), infeasible)
}

// TestElimNoWorseThanLocal solves cold-dense-shaped components — single
// ones of 60 to 180 facts, and bridged chains of them — with both
// engines: elimination must apply, be feasible, and cost no more than
// local search.
func TestElimNoWorseThanLocal(t *testing.T) {
	type tc struct {
		name string
		p    *Problem
	}
	var cases []tc
	for seed := int64(1); seed <= 8; seed++ {
		n := []int{60, 90, 120, 180}[seed%4]
		cases = append(cases, tc{"dense", denseComponent(700+seed, n)})
	}
	cases = append(cases,
		tc{"bridged", bridgedComponents(800, 60, 60)},
		tc{"bridged", bridgedComponents(810, 60, 90, 60)},
		tc{"bridged", bridgedComponents(820, 120, 60)})
	better := 0
	for i, c := range cases {
		sol, ok := solveElim(c.p)
		if !ok || !sol.HardSatisfied {
			t.Fatalf("%s %d (%d vars): elimination did not apply", c.name, i, c.p.NumVars)
		}
		local := solveLocal(c.p, Options{}.withDefaults(c.p.NumVars))
		if sol.Cost > local.Cost+1e-9 {
			t.Errorf("%s %d (%d vars): elimination cost %.9g above local search's %.9g", c.name, i, c.p.NumVars, sol.Cost, local.Cost)
		}
		if sol.Cost < local.Cost-1e-9 {
			better++
		}
	}
	t.Logf("elimination strictly below local search on %d of %d components", better, len(cases))
}

// padded returns p with free facts added, each with a unit prior, up to
// n variables: the same optimum cost, past exactVarLimit when n is.
func padded(p *Problem, n int) *Problem {
	for v := p.NumVars; v < n; v++ {
		p.Clauses = append(p.Clauses, unit(int32(v), 1))
	}
	p.NumVars = n
	return p
}

// TestElimBudgetGate pins the cell budget at its boundary: a clique of
// 17 facts needs 2^18 - 2 cells and is eliminated; one of 18 needs
// 2^19 - 2, and so does a single clause over 18 variables. Padded past
// exactVarLimit with free facts, so that the branch-and-bound does not
// take them, Solve hands the over-budget problems to local search, and
// a 20-clique falls through the same way; the 17-clique it eliminates,
// without a branch-and-bound node.
func TestElimBudgetGate(t *testing.T) {
	if _, ok := planElim(clique(17)); !ok {
		t.Fatal("17-clique: symbolic pass refused a problem within budget")
	}
	wide := &Problem{NumVars: 18}
	all := Clause{Weight: inf}
	for v := int32(0); v < 18; v++ {
		wide.Clauses = append(wide.Clauses, unit(v, 1))
		all.Lits = append(all.Lits, Lit{Var: v, Neg: true})
	}
	wide.Clauses = append(wide.Clauses, all)
	for name, p := range map[string]*Problem{"18-clique": clique(18), "20-clique": clique(20), "18-wide clause": wide} {
		if _, ok := planElim(p); ok {
			t.Fatalf("%s: symbolic pass accepted a problem over budget", name)
		}
		sol, err := Solve(padded(p, exactVarLimit+1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != EngineLocal || sol.Flips == 0 {
			t.Fatalf("%s: engine %q with %d flips, want local search", name, sol.Engine, sol.Flips)
		}
	}
	sol, err := Solve(clique(17), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Engine != EngineExact || !sol.Optimal || sol.Nodes != 0 || math.Abs(sol.Cost-17.2) > 1e-9 {
		t.Fatalf("17-clique: %+v", sol)
	}
}

// chain builds n variables with distinct positive unit priors and a hard
// ¬a ∨ ¬b between neighbours: n facts each overlapping the next, of
// induced width 1.
func chain(n int) *Problem {
	p := &Problem{NumVars: n}
	for i := 0; i < n; i++ {
		p.Clauses = append(p.Clauses, unit(int32(i), 1+0.01*float64(i%7)))
	}
	for i := 0; i+1 < n; i++ {
		p.Clauses = append(p.Clauses, notBoth(int32(i), int32(i+1)))
	}
	return p
}

// TestElimFirstEngineRule pins Solve's engine rule, which reads only
// the problem: elimination whenever its tables fit, at any size; the
// branch-and-bound for what it refuses up to exactVarLimit variables;
// local search past that. An eliminable problem never reaches the
// branch-and-bound, so a starved node limit cannot make it fall back.
func TestElimFirstEngineRule(t *testing.T) {
	cases := []struct {
		name   string
		p      *Problem
		opts   Options
		engine string
		nodes  bool // the branch-and-bound ran
	}{
		{"200-chain", chain(200), Options{}, EngineExact, false},
		{"20-clique", clique(20), Options{}, EngineExact, true},
		{"48-clique", clique(exactVarLimit), Options{}, EngineExact, true},
		{"49-clique", clique(exactVarLimit + 1), Options{}, EngineLocal, false},
		{"30-chain/NodeLimit=1", chain(30), Options{NodeLimit: 1}, EngineExact, false},
		{"48-chain/NodeLimit=1", chain(exactVarLimit), Options{NodeLimit: 1}, EngineExact, false},
	}
	for _, c := range cases {
		sol, err := Solve(c.p, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Engine != c.engine || (sol.Nodes > 0) != c.nodes {
			t.Fatalf("%s: engine %q with %d nodes, want %q (branch-and-bound %v)", c.name, sol.Engine, sol.Nodes, c.engine, c.nodes)
		}
		if c.engine == EngineExact && !sol.Optimal {
			t.Fatalf("%s: exact answer not marked optimal: %+v", c.name, sol)
		}
		if c.engine == EngineLocal && sol.Flips == 0 {
			t.Fatalf("%s: local search took no steps", c.name)
		}
		if !sol.HardSatisfied {
			t.Fatalf("%s: hard clauses violated", c.name)
		}
	}
}

// TestElimIgnoresSeedAndWarm solves the same components under different
// seeds and warm starts: Solve takes elimination and returns one answer.
func TestElimIgnoresSeedAndWarm(t *testing.T) {
	for _, p := range []*Problem{denseComponent(2, 120), bridgedComponents(830, 60, 90)} {
		want, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Engine != EngineExact || !want.Optimal || want.Flips != 0 || want.Nodes != 0 {
			t.Fatalf("%d vars: cold solve %+v, want elimination", p.NumVars, want)
		}
		rng := rand.New(rand.NewSource(int64(p.NumVars)))
		for trial := 0; trial < 4; trial++ {
			opts := Options{Seed: rng.Int63()}
			if trial%2 == 1 {
				opts.Warm = make([]bool, p.NumVars)
				for v := range opts.Warm {
					opts.Warm[v] = rng.Intn(2) == 0
				}
			}
			got, err := Solve(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assignment, want.Assignment) || got.Cost != want.Cost || got.Engine != want.Engine {
				t.Fatalf("%d vars, trial %d: answer moved with seed/warm: cost %g vs %g", p.NumVars, trial, got.Cost, want.Cost)
			}
		}
	}
}

// BenchmarkElimColdDenseComponent solves BenchmarkLocalDenseComponent's
// 120-variable cold-dense-shaped component by elimination.
func BenchmarkElimColdDenseComponent(b *testing.B) {
	p := denseComponent(2, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := solveElim(p); !ok {
			b.Fatal("elimination did not apply")
		}
	}
}
