// Package maxsat implements a weighted partial MaxSAT solver: hard
// clauses must be satisfied, and the total weight of violated soft
// clauses is minimised.
//
// MAP inference in a Markov logic network is exactly weighted partial
// MaxSAT over the ground network, so this package plays the role the
// Gurobi ILP backend plays inside RockIt: the encodings differ, the
// optimum is the same. Three engines sit behind one Solve entry point,
// which picks one from the problem alone: exact bucket elimination
// (elim.go) whenever its tables fit a fixed budget, whatever the
// variable count, as they do for the interval-overlap conflict
// components of temporal constraints when few facts overlap at once;
// an exact branch-and-bound with unit propagation for the problems of
// at most exactVarLimit variables that elimination refuses; and a
// WalkSAT-style stochastic local search with greedy initialisation for
// the rest. Both exact engines report Engine "exact" and Optimal.
//
// Local-search restarts run in sequence, each with its own RNG (seeded
// from Options.Seed and the restart index) and its own working state,
// sharing the occurrence records (per variable and clause, the counts of
// its positive and negative literals, which both engines read instead of
// rescanning a clause). Each walk step scores the variables of one
// clause in one pass. The returned solution is the first restart's with
// the lowest (hard feasibility, soft cost), and the first perfect
// restart ends the run. Callers parallelise across independent problems
// (the conflict components), never within one.
package maxsat

import (
	"fmt"
	"math"
)

// Lit is a literal over variable Var (0-based); Neg selects the negative
// phase.
type Lit struct {
	Var int32
	Neg bool
}

// Clause is a weighted disjunction. Weight = +Inf marks a hard clause.
type Clause struct {
	Lits   []Lit
	Weight float64
}

// Hard reports whether the clause must be satisfied.
func (c *Clause) Hard() bool { return math.IsInf(c.Weight, 1) }

// Problem is a weighted partial MaxSAT instance.
type Problem struct {
	NumVars int
	Clauses []Clause
}

// Validate reports structural problems: out-of-range variables, empty
// clauses, NaN or negative weights.
func (p *Problem) Validate() error {
	for i, c := range p.Clauses {
		if len(c.Lits) == 0 {
			return fmt.Errorf("maxsat: clause %d is empty", i)
		}
		if math.IsNaN(c.Weight) || c.Weight < 0 {
			return fmt.Errorf("maxsat: clause %d has invalid weight %g", i, c.Weight)
		}
		for _, l := range c.Lits {
			if l.Var < 0 || int(l.Var) >= p.NumVars {
				return fmt.Errorf("maxsat: clause %d references variable %d outside [0,%d)", i, l.Var, p.NumVars)
			}
		}
	}
	return nil
}

// Solution is the result of solving a problem.
type Solution struct {
	// Assignment holds one truth value per variable.
	Assignment []bool
	// Cost is the total weight of violated soft clauses.
	Cost float64
	// HardSatisfied reports whether all hard clauses hold. When false no
	// feasible assignment was found (the hard clauses may be
	// unsatisfiable).
	HardSatisfied bool
	// Optimal reports an optimum proved by an exact engine: the
	// branch-and-bound, or bucket elimination.
	Optimal bool
	// Flips counts local-search steps across the restarts that ran (0
	// for the exact engines): every iteration of the walk, the moves it
	// declined included. Restarts after the first perfect one do not
	// run.
	Flips int
	// Nodes counts branch-and-bound nodes (0 for bucket elimination and
	// local search).
	Nodes int
	// Engine names the guarantee behind the assignment: "exact" for a
	// proved optimum (branch-and-bound or bucket elimination), "local"
	// for local search, or "exact→local" when the branch-and-bound
	// exhausted its node limit and Solve fell back to local search.
	Engine string
}

// Engine names reported in Solution.Engine.
const (
	EngineExact    = "exact"
	EngineLocal    = "local"
	EngineFallback = "exact→local"
)

// exactVarLimit is the largest problem the branch-and-bound takes once
// bucket elimination has refused it: a clique of 48 mutually exclusive
// facts, too wide for elimination, solves in about 2n nodes.
const exactVarLimit = 48

// Options tunes Solve. The engine is not an option: Solve picks it from
// the problem.
type Options struct {
	// NodeLimit bounds branch-and-bound nodes before falling back to
	// local search (default 1<<21).
	NodeLimit int
	// MaxFlips bounds local-search steps, shared evenly by the restarts
	// (default max(100000, 60*vars)).
	MaxFlips int
	// Noise is the random-walk probability in local search (default 0.12).
	Noise float64
	// Restarts is the number of local-search restarts (default 3).
	Restarts int
	// Seed seeds the local-search RNG (default 1). Bucket elimination
	// ignores it.
	Seed int64
	// Warm, when it has exactly NumVars entries, warm-starts the solver
	// from a previous solution of a closely related instance. The
	// branch-and-bound uses it purely as an initial upper bound: pruning
	// is strict, so the returned assignment is provably identical to a
	// cold solve — only faster. Bucket elimination ignores it, so its
	// answer is the same warm or cold. The local-search engine
	// initialises restart 0 from it instead of the greedy heuristic,
	// which speeds convergence but may settle on a different (equally
	// valid) assignment than a cold run.
	Warm []bool
}

func (o Options) withDefaults(nvars int) Options {
	if o.NodeLimit == 0 {
		o.NodeLimit = 1 << 21
	}
	if o.MaxFlips == 0 {
		o.MaxFlips = 100000
		if m := 60 * nvars; m > o.MaxFlips {
			o.MaxFlips = m
		}
	}
	if o.Noise == 0 {
		o.Noise = 0.12
	}
	if o.Restarts == 0 {
		o.Restarts = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Evaluate returns the number of violated hard clauses and the violated
// soft weight under the assignment.
func Evaluate(p *Problem, assign []bool) (hardViolations int, cost float64) {
	for _, c := range p.Clauses {
		sat := false
		for _, l := range c.Lits {
			if assign[l.Var] != l.Neg {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		if c.Hard() {
			hardViolations++
		} else {
			cost += c.Weight
		}
	}
	return hardViolations, cost
}

// Solve picks an engine from the problem: bucket elimination when its
// tables fit the budget (elimCellBudget) and the hard clauses are
// satisfiable; otherwise the branch-and-bound when the variable count is
// within exactVarLimit (local search when it exhausts its node limit);
// stochastic local search otherwise.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(p.NumVars)
	if p.NumVars == 0 {
		return &Solution{HardSatisfied: true, Optimal: true, Engine: EngineExact}, nil
	}
	if sol, ok := solveElim(p); ok {
		sol.Engine = EngineExact
		return sol, nil
	}
	if p.NumVars <= exactVarLimit {
		if sol, complete := solveExact(p, opts); complete {
			sol.Engine = EngineExact
			return sol, nil
		}
		sol := solveLocal(p, opts)
		sol.Engine = EngineFallback
		return sol, nil
	}
	sol := solveLocal(p, opts)
	sol.Engine = EngineLocal
	return sol, nil
}
