package mln

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/maxsat"
)

// Component-decomposed MAP inference.
//
// Constraints only connect atoms that co-occur in a ground clause, so
// the ground network splits into independent conflict components and the
// MaxSAT objective decomposes exactly across them: solving each
// component separately and concatenating the assignments yields an
// optimum of the whole network. The orchestration — partitioning, the
// reusable/dirty split, concurrent scheduling with a deterministic
// merge order, the (key, generation, membership) solution cache and
// the records each pass replaces or retires — lives in internal/engine
// and is shared with the PSL backend and the repair read-out. This file
// contributes the component loop every boolean kernel runs on
// (SolveComponents: the MLN read-out of the state and its running
// totals) and the MaxSAT kernel; the greedy baseline
// plugs its sweep in as another Kernel. The MaxSAT kernel adds:
//
//   - engine specialisation, which maxsat.Solve decides from each
//     subproblem: exact bucket elimination when the component's induced
//     width allows, the exact branch-and-bound for a small component it
//     refuses, local search otherwise; a component whose
//     branch-and-bound exhausts its node limit falls back to local
//     search rather than keeping the partial result;
//   - per-component subproblems built in canonical atom and clause
//     order, so any two grounder states with equal live atoms and
//     clauses produce byte-identical subproblems regardless of interning
//     history, and wherever an exact engine runs — where the optimum is
//     unique — the MAP state is that of the whole network solved at once.
//
// The solve-level read-out (violated soft weight, hard feasibility,
// per-rule violation counts) is likewise a sum of per-component
// contributions, so the cache carries each component's contribution
// alongside its assignment, and the running totals move with every
// record the pass installs or retires (engine.Run's swap). The pass
// visits the scope the plan answers for the cache — the planner's
// change set when the previous state is in hand and the cache is exactly
// one sync behind, every component otherwise — and the component-size
// statistics come from the plan.

// ComponentCache carries per-component MAP solutions across the
// incremental engine's solves, plus the running solve-level aggregate
// of their read-out contributions (see stateAgg). Construct with
// NewComponentCache. Not safe for concurrent use.
type ComponentCache struct {
	comps *engine.Cache[compEntry]
	agg   stateAgg
}

// NewComponentCache returns an empty cache.
func NewComponentCache() *ComponentCache {
	return &ComponentCache{comps: engine.NewCache[compEntry](), agg: stateAgg{viol: make(map[string]int)}}
}

// compEval is one component's contribution to the solve-level read-out:
// its violated soft weight, hard feasibility and violation counts (viol
// is nil when the component violates nothing) — priors folded in the
// component's canonical atom order, clauses in canonical order.
type compEval struct {
	cost   float64
	hardOK bool
	viol   map[string]int
}

// compEntry is one component's record: its truth, aligned with the
// component's atoms, the engine that produced it, and its read-out
// contribution.
type compEntry struct {
	truth  []bool
	engine string
	eval   compEval
}

// stateAgg is the sum of every cached record's read-out contribution,
// moved by each record the pass installs or retires, so it always
// equals a fold over the cache's records — the cost too, being an exact
// sum: a chained cost equals a fresh solve's bit for bit.
type stateAgg struct {
	cost       engine.ExactSum
	hardBad    int
	nonOptimal int
	viol       map[string]int
}

// count adds the record's contribution (d = 1) or takes it back (d = -1).
func (g *stateAgg) count(e *compEntry, d int) {
	if d > 0 {
		g.cost.Add(e.eval.cost)
	} else {
		g.cost.Sub(e.eval.cost)
	}
	if !e.eval.hardOK {
		g.hardBad += d
	}
	if e.engine != maxsat.EngineExact {
		g.nonOptimal += d
	}
	for r, c := range e.eval.viol {
		if g.viol[r] += d * c; g.viol[r] == 0 {
			delete(g.viol, r)
		}
	}
}

// Kernel solves one conflict component's subproblem: vars are its atoms
// in canonical order, clauses its clauses in canonical order with
// literals numbered by position in vars, and warm the previous MAP state
// by atom id (nil on a cold start). It returns the truth of each var and
// the engine that produced it; maxsat.EngineExact marks a proved
// optimum and maxsat.EngineFallback an exact search that fell back to
// local search. A kernel must be sequential and may run concurrently
// for different components.
type Kernel func(atoms *ground.AtomTable, vars []ground.AtomID, clauses []ground.Clause, warm []bool) ([]bool, string, error)

// MAPGroundComponents computes the MAP state over an already-closed
// grounder and its full clause set by solving each conflict component
// separately as weighted MaxSAT: SolveComponents with the MaxSAT kernel.
func MAPGroundComponents(g *ground.Grounder, cs *ground.ClauseSet, opts Options, warm []bool, cache *ComponentCache, plan *engine.Plan) (*Result, error) {
	return SolveComponents(g, cs, opts, warm, cache, plan, nil)
}

// SolveComponents runs kernel — the MaxSAT kernel when nil — once per
// conflict component of an already-closed
// grounder and its full clause set, and merges the assignments into one
// state; forward chaining and grounding are the caller's responsibility (Close/GroundProgram, or CloseDelta/GroundDelta
// on a session engine). warm, when non-nil, is the previous state this
// kernel produced with this cache, by atom id (handed to the kernel as a
// warm start; nil is a cold start). plan is the shared decomposition
// built by the caller (engine.NewPlan or a Planner sync), so solver and
// repair stages see the identical partition; cache is consulted for
// unchanged components and updated with this solve's solutions
// (NewComponentCache for a one-off solve; one cache per kernel). Both
// are required. The read-out — cost, feasibility, violation counts —
// scores the state under opts' priors whichever kernel ran.
//
// The components in the plan's scope are solved and their assignments
// written over the atoms each component owns, so no list order enters
// the merged state. Under a change-set scope (previous state in hand,
// cache exactly one sync behind a maintained plan) the planner bounds
// everything that can differ from the previous solve: components
// outside the scope have the same generation, membership and clause
// subproblem, so the previous truth is carried forward and retracted
// atoms are pinned false. Otherwise every component is visited. Either
// way the totals move only by the records replaced, installed or
// retired.
func SolveComponents(g *ground.Grounder, cs *ground.ClauseSet, opts Options, warm []bool, cache *ComponentCache, plan *engine.Plan, kernel Kernel) (*Result, error) {
	opts = opts.withDefaults()
	if kernel == nil {
		kernel = func(atoms *ground.AtomTable, vars []ground.AtomID, clauses []ground.Clause, warm []bool) ([]bool, string, error) {
			return solveComponent(atoms, vars, clauses, opts, warm)
		}
	}
	start := time.Now()
	atoms := g.Atoms()
	stats := &ground.ComponentStats{}
	pass, err := engine.Run(plan, warm != nil, opts.Parallelism, cache.comps,
		func(int, *compEntry) bool { return true },
		func(i int) (compEntry, error) {
			comp := &plan.Comps[i]
			clauses, _ := plan.Clauses(i)
			truth, eng, err := kernel(atoms, comp.Atoms, clauses, warm)
			if err != nil {
				return compEntry{}, err
			}
			return compEntry{truth: truth, engine: eng, eval: evalComponent(atoms, comp, clauses, truth, opts)}, nil
		},
		func(old, new *compEntry) {
			if old != nil {
				cache.agg.count(old, -1)
			}
			if new != nil {
				cache.agg.count(new, 1)
				stats.Solved++
				stats.Engine(new.engine)
				if new.engine == maxsat.EngineFallback {
					stats.Fallbacks++
				}
			}
		})
	if err != nil {
		return nil, fmt.Errorf("mln: %w", err)
	}
	truth := engine.Merge(pass, warm, atoms.Len(), func(e *compEntry) []bool { return e.truth })
	plan.FillStats(stats)
	res := resultFromAgg(&cache.agg, cs, stats, truth)
	res.TruthDelta = pass.Delta
	res.Runtime = time.Since(start)
	return res, nil
}

// resultFromAgg assembles the solve Result from the aggregate totals.
// The violation map is copied: callers hold Results across solves while
// the aggregate keeps mutating.
func resultFromAgg(agg *stateAgg, cs *ground.ClauseSet, stats *ground.ComponentStats, truth []bool) *Result {
	viol := make(map[string]int, len(agg.viol))
	for r, c := range agg.viol {
		viol[r] = c
	}
	return &Result{
		Truth:          truth,
		Cost:           agg.cost.Float64(),
		HardSatisfied:  agg.hardBad == 0,
		Optimal:        agg.nonOptimal == 0,
		Rounds:         1,
		GroundClauses:  cs.Len(),
		RuleViolations: viol,
		Components:     stats,
	}
}

// solveComponent is the MaxSAT kernel: it builds the component's
// weighted MaxSAT subproblem from its priors and clauses and hands it to
// maxsat.Solve, which picks the engine from the subproblem.
func solveComponent(atoms *ground.AtomTable, vars []ground.AtomID, clauses []ground.Clause, opts Options, warm []bool) ([]bool, string, error) {
	n := len(vars)
	problem := &maxsat.Problem{NumVars: n}
	for li, a := range vars {
		if c, ok := priorClause(atoms, a, int32(li), opts); ok {
			problem.Clauses = append(problem.Clauses, c)
		}
	}
	for _, c := range clauses {
		problem.Clauses = append(problem.Clauses, toMaxsatClause(c))
	}

	// The warm start comes from warm alone: on a cold solve a caller's
	// MaxSAT.Warm would steer every component of its size.
	mopts := opts.MaxSAT
	mopts.Warm = nil
	if warm != nil {
		w := make([]bool, n)
		for li, a := range vars {
			if int(a) < len(warm) {
				w[li] = warm[a]
			}
		}
		mopts.Warm = w
	}
	sol, err := maxsat.Solve(problem, mopts)
	if err != nil {
		return nil, "", err
	}
	return sol.Assignment, sol.Engine, nil
}

// evalComponent computes the component's read-out contribution on the
// local assignment: priors in the component's canonical atom order,
// then the component's clauses in canonical order.
func evalComponent(atoms *ground.AtomTable, comp *ground.Component, clauses []ground.Clause, truth []bool, opts Options) compEval {
	ev := compEval{hardOK: true}
	for li, a := range comp.Atoms {
		if w := priorWeight(atoms, a, opts); w > 0 && !truth[li] {
			ev.cost += w
		} else if w < 0 && truth[li] {
			ev.cost += -w
		}
	}
	for i := range clauses {
		c := &clauses[i]
		if !c.Satisfied(func(a ground.AtomID) bool { return truth[a] }) {
			if c.Hard() {
				ev.hardOK = false
			} else {
				ev.cost += c.Weight
			}
			if ev.viol == nil {
				ev.viol = make(map[string]int)
			}
			ev.viol[c.Rule]++
		}
	}
	return ev
}
