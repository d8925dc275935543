// Package mln implements MAP inference for Markov logic networks with
// numerical constraints — the role played by nRockIt in TeCoRe.
//
// The ground network comes from the grounding engine: evidence atoms
// carry log-odds priors derived from fact confidences, rule and
// constraint groundings contribute weighted clauses. MAP — the most
// probable world — is computed as weighted partial MaxSAT over the fully
// grounded network, one subproblem per independent conflict component
// (see components.go), each solved exactly whenever the maxsat package
// can: bucket elimination when the component's induced width is low
// (the interval-overlap components temporal constraints ground are),
// branch-and-bound for the small dense ones it refuses, local search
// otherwise; maxsat.Solve picks the engine from the component alone.
// The component loop also runs the greedy baseline as its kernel
// (SolveComponents).
//
// CuttingPlane is the whole-network counterpart, kept as a test oracle:
// cutting-plane inference (CPI) solves with evidence priors only, adds
// the groundings the current solution violates, and repeats until
// nothing new is violated. RockIt uses CPI because it fetches groundings
// lazily; this pipeline grounds eagerly, so CPI only merges the
// components into one problem too large for the exact engine.
package mln

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ground"
	"repro/internal/maxsat"
)

// Options tunes MAP inference.
type Options struct {
	// EvidenceClamp bounds confidences away from 0 and 1 before the
	// log-odds transform so certain facts stay finite (default 1e-3).
	EvidenceClamp float64
	// KeepBias is a small bonus added to every evidence atom's prior so
	// that asserted facts — even at confidence 0.5, which maps to zero
	// log-odds — are kept unless a constraint or stronger evidence pushes
	// them out (default 0.05). The paper's Figure 7 keeps the
	// confidence-0.5 Palermo fact; this bias reproduces that behaviour.
	KeepBias float64
	// DerivedPrior is the closed-world penalty against deriving atoms
	// with no rule support (default 0.01).
	DerivedPrior float64
	// Parallelism bounds the worker pool solving conflict components
	// concurrently: 0 means GOMAXPROCS, 1 forces the sequential path.
	// The grounder's own width is its caller's (Grounder.Parallelism).
	// The MAP state is identical at every setting.
	Parallelism int
	// Deprecated: ignored — every MLN/PSL solve is component-decomposed; kept only until bench/ can be edited
	ComponentSolve bool
	// MaxSAT tunes the underlying solver. The component loop ignores
	// its Warm: a component warm-starts only from SolveComponents' warm
	// argument.
	MaxSAT maxsat.Options
}

func (o Options) withDefaults() Options {
	if o.EvidenceClamp == 0 {
		o.EvidenceClamp = 1e-3
	}
	if o.KeepBias == 0 {
		o.KeepBias = 0.05
	}
	if o.DerivedPrior == 0 {
		o.DerivedPrior = 0.01
	}
	return o
}

// Logit maps a confidence to the weight of its evidence unit clause:
// ln(c / (1-c)), with c clamped to [eps, 1-eps]. Confidence 0.5 maps to
// zero (no prior); higher confidences push the atom true, lower push it
// false.
func Logit(conf, eps float64) float64 {
	if conf < eps {
		conf = eps
	}
	if conf > 1-eps {
		conf = 1 - eps
	}
	return math.Log(conf / (1 - conf))
}

// Result is the MAP state over the ground network.
type Result struct {
	// Truth assigns a boolean to every atom id.
	Truth []bool
	// Cost is the violated soft weight of the final MaxSAT problem. The
	// component solve sums the components' costs exactly, so it does not
	// depend on the order they were solved in or on the solves before.
	Cost float64
	// HardSatisfied reports whether all hard constraints hold.
	HardSatisfied bool
	// Optimal reports whether the exact engine proved optimality of the
	// final problem.
	Optimal bool
	// Rounds is the number of cutting-plane iterations (1 for the
	// component solve).
	Rounds int
	// GroundClauses is the number of distinct rule clauses grounded.
	GroundClauses int
	// Runtime is the wall-clock inference time.
	Runtime time.Duration
	// RuleViolations counts violated groundings per rule name in the
	// final state (soft rules only; hard violations imply infeasibility).
	RuleViolations map[string]int
	// Components summarises the component-decomposed solve, whichever
	// kernel ran; nil from CuttingPlane.
	Components *ground.ComponentStats
	// TruthDelta reports that Truth was produced under the plan's
	// change-set scope: atoms outside the components that scope names
	// carry the previous solve's truth bit-for-bit, so downstream
	// consumers with state settled against the same plan generation may
	// restrict their own passes to the same scope.
	TruthDelta bool
}

// TrueAtom reports the truth of atom id in the MAP state.
func (r *Result) TrueAtom(id ground.AtomID) bool { return r.Truth[id] }

// priorWeight is atom a's prior as a signed weight on its truth: the
// log-odds of its confidence plus KeepBias for an evidence atom, the
// closed-world penalty -DerivedPrior for a derived one. A positive
// weight is lost when the atom is false, a negative one when it is true.
func priorWeight(atoms *ground.AtomTable, a ground.AtomID, opts Options) float64 {
	if atoms.IsEvidence(a) {
		return Logit(atoms.Confidence(a), opts.EvidenceClamp) + opts.KeepBias
	}
	if opts.DerivedPrior > 0 {
		return -opts.DerivedPrior
	}
	return 0
}

// priorClause is the prior unit clause of atom a solved as variable v.
// ok is false when the prior is zero.
func priorClause(atoms *ground.AtomTable, a ground.AtomID, v int32, opts Options) (c maxsat.Clause, ok bool) {
	switch w := priorWeight(atoms, a, opts); {
	case w > 0:
		return maxsat.Clause{Lits: []maxsat.Lit{{Var: v}}, Weight: w}, true
	case w < 0:
		return maxsat.Clause{Lits: []maxsat.Lit{{Var: v, Neg: true}}, Weight: -w}, true
	}
	return maxsat.Clause{}, false
}

func toMaxsatClause(c ground.Clause) maxsat.Clause {
	mc := maxsat.Clause{Weight: c.Weight, Lits: make([]maxsat.Lit, len(c.Lits))}
	for i, l := range c.Lits {
		mc.Lits[i] = maxsat.Lit{Var: int32(l.Atom), Neg: l.Neg}
	}
	return mc
}

// maxCPIRounds bounds CuttingPlane's iterations.
const maxCPIRounds = 30

// CuttingPlane computes the MAP state over a fully grounded network by
// cutting-plane inference: one whole-network MaxSAT over the evidence
// priors and the rule groundings collected so far per round, each round
// adding the groundings the current solution violates, until a round
// finds nothing new. cs is the network's full clause set (GroundProgram's
// after Close); the violated groundings are selected from it, never
// re-joined. It keeps no state between calls and has no production
// caller: it is the whole-network oracle the component loop is tested
// against.
//
// The MaxSAT variables are the live atoms in canonical order
// (ground.CanonicalAtoms, the order the component loop and the solve
// plan use) and the clauses are gathered once in canonical clause order
// (ComponentClauses over every live atom), each round appending its new
// groundings in that order; so two networks holding the same live atoms
// and groundings — a fresh grounder's, or a long-lived session's that has
// interned and retracted other atoms on the way — hand the solver the
// identical problem: the same exact-vs-local choice, the same
// local-search walk and the same tie-break among equal-cost optima.
func CuttingPlane(atoms *ground.AtomTable, cs *ground.ClauseSet, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	order := ground.CanonicalAtoms(atoms)
	varOf := ground.CanonicalVarMap(atoms, order)
	var base []maxsat.Clause
	for v, a := range order {
		if c, ok := priorClause(atoms, a, int32(v), opts); ok {
			base = append(base, c)
		}
	}
	clauses, _ := cs.ComponentClauses(order, func(a ground.AtomID) int32 { return varOf[a] })
	added := make([]bool, len(clauses))
	var ruleClauses []maxsat.Clause
	for round := 1; round <= maxCPIRounds; round++ {
		problem := &maxsat.Problem{NumVars: len(order),
			Clauses: append(append([]maxsat.Clause{}, base...), ruleClauses...)}
		sol, err := maxsat.Solve(problem, opts.MaxSAT)
		if err != nil {
			return nil, fmt.Errorf("mln: %w", err)
		}
		truth := func(v ground.AtomID) bool { return sol.Assignment[v] }
		violations := make(map[string]int)
		grew := false
		for k := range clauses {
			if clauses[k].Satisfied(truth) {
				continue
			}
			violations[clauses[k].Rule]++
			if !added[k] {
				added[k] = true
				ruleClauses = append(ruleClauses, toMaxsatClause(clauses[k]))
				grew = true
			}
		}
		if grew {
			continue
		}
		// Every grounding the final state violates is in the problem.
		res := &Result{
			Truth:          make([]bool, atoms.Len()),
			Cost:           sol.Cost,
			HardSatisfied:  sol.HardSatisfied,
			Optimal:        sol.Optimal,
			Rounds:         round,
			GroundClauses:  len(ruleClauses),
			RuleViolations: violations,
		}
		for v, a := range order {
			res.Truth[a] = sol.Assignment[v]
		}
		res.Runtime = time.Since(start)
		return res, nil
	}
	return nil, fmt.Errorf("mln: cutting-plane inference did not converge in %d rounds", maxCPIRounds)
}
