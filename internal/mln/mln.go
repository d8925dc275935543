// Package mln implements MAP inference for Markov logic networks with
// numerical constraints — the role played by nRockIt in TeCoRe.
//
// The ground network comes from the grounding engine: evidence atoms
// carry log-odds priors derived from fact confidences, rule and
// constraint groundings contribute weighted clauses. MAP — the most
// probable world — is computed as weighted partial MaxSAT, either over
// the fully grounded network — one subproblem per independent conflict
// component (see components.go) — or by cutting-plane inference (CPI):
// solve with evidence priors only, lazily ground the formulas the current
// solution violates, and repeat until nothing new is violated. CPI is the
// same device RockIt uses to keep ground networks small.
package mln

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/maxsat"
)

// Options tunes MAP inference.
type Options struct {
	// CuttingPlane enables lazy violation-driven grounding instead of
	// grounding the full program up front.
	CuttingPlane bool
	// MaxCPIRounds bounds cutting-plane iterations (default 30).
	MaxCPIRounds int
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
	// Parallelism bounds the worker pools used for grounding, for
	// solving conflict components concurrently and, under CuttingPlane,
	// for local-search restarts: 0 means GOMAXPROCS, 1 forces the
	// sequential path. The MAP state is identical at every setting.
	Parallelism int
	// Deprecated: ignored — every MLN/PSL solve is component-decomposed; kept only until bench/ can be edited
	ComponentSolve bool
	// ComponentExactLimit is the largest conflict component (in atoms)
	// handed to the exact branch-and-bound engine; larger components use
	// local search (default 48). Unused under CuttingPlane, which keeps
	// no persistent clause set to partition.
	ComponentExactLimit int
	// MaxSAT tunes the underlying solver.
	MaxSAT maxsat.Options
}

func (o Options) withDefaults() Options {
	if o.MaxCPIRounds == 0 {
		o.MaxCPIRounds = 30
	}
	if o.EvidenceClamp == 0 {
		o.EvidenceClamp = 1e-3
	}
	if o.KeepBias == 0 {
		o.KeepBias = 0.05
	}
	if o.DerivedPrior == 0 {
		o.DerivedPrior = 0.01
	}
	if o.ComponentExactLimit == 0 {
		o.ComponentExactLimit = 48
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
	// Cost is the violated soft weight of the final MaxSAT problem.
	Cost float64
	// HardSatisfied reports whether all hard constraints hold.
	HardSatisfied bool
	// Optimal reports whether the exact engine proved optimality of the
	// final problem.
	Optimal bool
	// Rounds is the number of cutting-plane iterations (1 when CPI is
	// off).
	Rounds int
	// GroundClauses is the number of distinct rule clauses grounded.
	GroundClauses int
	// Runtime is the wall-clock inference time.
	Runtime time.Duration
	// RuleViolations counts violated groundings per rule name in the
	// final state (soft rules only; hard violations imply infeasibility).
	RuleViolations map[string]int
	// Components summarises the component-decomposed solve; nil under
	// CuttingPlane.
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

// MAP computes the most probable world for the program over the
// grounder's evidence. The grounder must be freshly constructed over the
// evidence store; MAP forward-chains inference rules itself.
func MAP(g *ground.Grounder, prog *logic.Program, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	g.Parallelism = opts.Parallelism
	start := time.Now()
	if _, err := g.Close(prog); err != nil {
		return nil, fmt.Errorf("mln: %w", err)
	}

	if opts.CuttingPlane {
		if opts.MaxSAT.Parallelism == 0 {
			opts.MaxSAT.Parallelism = opts.Parallelism
		}
		res, err := solveCPI(g, prog, evidenceClauses(g, opts), opts)
		if err != nil {
			return nil, err
		}
		res.Runtime = time.Since(start)
		return res, nil
	}

	cs, err := g.GroundProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("mln: %w", err)
	}
	res, err := solveComponents(g, cs, opts, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// priorClause is the prior unit clause of an atom solved as variable v:
// a log-odds unit for an evidence atom, the closed-world penalty for a
// derived one. ok is false when the prior is zero.
func priorClause(info ground.AtomInfo, v int32, opts Options) (c maxsat.Clause, ok bool) {
	var w float64
	if info.Evidence {
		w = Logit(info.Conf, opts.EvidenceClamp) + opts.KeepBias
	} else if opts.DerivedPrior > 0 {
		w = -opts.DerivedPrior
	}
	switch {
	case w > 0:
		return maxsat.Clause{Lits: []maxsat.Lit{{Var: v}}, Weight: w}, true
	case w < 0:
		return maxsat.Clause{Lits: []maxsat.Lit{{Var: v, Neg: true}}, Weight: -w}, true
	}
	return maxsat.Clause{}, false
}

// evidenceClauses builds the prior unit clauses of every atom, by atom
// id — the base problem of cutting-plane inference.
func evidenceClauses(g *ground.Grounder, opts Options) []maxsat.Clause {
	atoms := g.Atoms()
	out := make([]maxsat.Clause, 0, atoms.Len())
	for i := 0; i < atoms.Len(); i++ {
		if c, ok := priorClause(atoms.Info(ground.AtomID(i)), int32(i), opts); ok {
			out = append(out, c)
		}
	}
	return out
}

func toMaxsatClause(c ground.Clause) maxsat.Clause {
	mc := maxsat.Clause{Weight: c.Weight, Lits: make([]maxsat.Lit, len(c.Lits))}
	for i, l := range c.Lits {
		mc.Lits[i] = maxsat.Lit{Var: int32(l.Atom), Neg: l.Neg}
	}
	return mc
}

func solveCPI(g *ground.Grounder, prog *logic.Program, base []maxsat.Clause, opts Options) (*Result, error) {
	seen := make(map[string]bool)
	var ruleClauses []maxsat.Clause
	res := &Result{}
	for round := 1; ; round++ {
		if round > opts.MaxCPIRounds {
			return nil, fmt.Errorf("mln: cutting-plane inference did not converge in %d rounds", opts.MaxCPIRounds)
		}
		problem := &maxsat.Problem{NumVars: g.Atoms().Len(),
			Clauses: append(append([]maxsat.Clause{}, base...), ruleClauses...)}
		sol, err := maxsat.Solve(problem, opts.MaxSAT)
		if err != nil {
			return nil, fmt.Errorf("mln: %w", err)
		}
		res.Truth = sol.Assignment
		res.Cost = sol.Cost
		res.HardSatisfied = sol.HardSatisfied
		res.Optimal = sol.Optimal
		res.Rounds = round
		res.GroundClauses = len(ruleClauses)

		truth := func(a ground.AtomID) bool { return sol.Assignment[a] }
		violated, err := g.GroundViolated(prog, truth)
		if err != nil {
			return nil, fmt.Errorf("mln: %w", err)
		}
		added := 0
		for _, c := range violated.Clauses() {
			mc := toMaxsatClause(c)
			key := clauseKey(c)
			if seen[key] {
				continue
			}
			seen[key] = true
			ruleClauses = append(ruleClauses, mc)
			added++
		}
		if added == 0 {
			// This round grounded exactly the groundings the final
			// state violates.
			res.GroundClauses = len(ruleClauses)
			res.RuleViolations = make(map[string]int)
			for _, c := range violated.Clauses() {
				res.RuleViolations[c.Rule]++
			}
			return res, nil
		}
	}
}

func clauseKey(c ground.Clause) string {
	b := make([]byte, 0, 8*len(c.Lits)+len(c.Rule))
	for _, l := range c.Lits {
		v := uint32(l.Atom)<<1 | boolBit(l.Neg)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	b = append(b, c.Rule...)
	return string(b)
}

func boolBit(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}
