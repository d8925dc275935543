package psl

import (
	"time"

	"repro/internal/engine"
	"repro/internal/ground"
)

// Component-decomposed HL-MRF MAP inference.
//
// The HL-MRF objective is a sum of per-potential hinges plus separable
// per-atom priors, so it decomposes exactly across the conflict
// components of the ground network: running consensus ADMM per component
// minimises the same objective. The orchestration — partitioning, the
// reusable/dirty split, concurrent scheduling with a deterministic
// merge order, the (key, generation, membership) iterate cache and the
// records each pass replaces or retires — lives in internal/engine and
// is shared with the MLN backend and the repair read-out; this file
// contributes only the ADMM kernel. Each component converges on its own
// residuals rather than waiting for a global criterion.
//
// There is one pass, as in the MLN kernel: it visits the scope the plan
// answers for the cache — the planner's change set when the cache is
// exactly one sync behind and the previous solve's state is in hand,
// every component otherwise. One rule is ADMM's own: a component whose
// ADMM stopped short of its tolerance is not a solution to reuse, and it
// must be re-offered on every solve until it converges, although the
// change set does not name it; while the cache holds any such record,
// every component is in scope. The warm iterate tables (Warm.Z/U) and
// the unconverged count move with every record the pass installs or
// retires, so a change-set pass touches only the scoped components and
// the retired ones.
//
// The strictly convex objective has a unique optimum; a component's
// ADMM stops once its residuals fall below the tolerance, and where that
// is depends on the start (cold or warm). Discretisation and repair
// therefore read the values on a grid of tieBand tolerances (see
// solveComponent), so a warm and a cold solve round alike.

// ComponentCache carries per-component ADMM iterates across the
// incremental engine's solves, plus how many of its records did not
// converge, which decides whether a change-set scope is enough.
// Construct with NewComponentCache. Not safe for concurrent use.
type ComponentCache struct {
	comps       *engine.Cache[compEntry]
	unconverged int
}

// NewComponentCache returns an empty cache.
func NewComponentCache() *ComponentCache {
	return &ComponentCache{comps: engine.NewCache[compEntry]()}
}

type compEntry struct {
	// values and truth are aligned with the component's atoms; slots are
	// the stable clause-set slots of its potentials, and z and u are
	// aligned with them.
	values []float64
	truth  []bool
	slots  []int32
	z, u   [][]float64
	// converged records whether ADMM met its tolerance; unconverged
	// entries are never reused (the reuse hook demotes them to dirty),
	// so the component is iterated again — warm-started — on the next
	// solve.
	converged bool
	// What the solve that produced the record reports about its sweeps.
	iterations   int
	primal, dual float64
	repairFlips  int
}

// MAPGroundComponents computes the HL-MRF MAP state over an
// already-closed grounder and its full clause set by running ADMM per
// conflict component; forward chaining and grounding are the caller's
// responsibility (Close/GroundProgram, or CloseDelta/GroundDelta on a
// session engine). warm, when non-nil, is the state the previous solve
// returned with this cache (dirty components are warm-started from it;
// nil is a cold start). Its iterate tables then hold exactly the slots
// of the cache's records, and each pass keeps them so: it clears the
// slots of every record it replaces or retires and writes those of the
// records it installs.
// plan is the shared decomposition built by the caller (engine.NewPlan
// or a Planner sync); cache is consulted for unchanged components and
// updated with this solve's iterates (NewComponentCache for a one-off
// solve). Both are required. The returned Warm — warm itself, updated in
// place, or a fresh one when warm is nil — feeds the next solve.
//
// Under a change-set scope (cache exactly one sync behind a maintained
// plan, every cached record converged, the previous state in hand) the
// planner bounds everything that can differ from the previous solve:
// components outside the scope keep their converged records, so the
// previous values and truth are carried forward, retracted atoms are
// pinned to zero, and the iterate tables lose the slots of every record
// replaced or retired and gain those of the scoped components.
// Otherwise every component is visited. Either way the tables change
// only by the records the pass replaces, installs or retires.
func MAPGroundComponents(g *ground.Grounder, cs *ground.ClauseSet, opts Options, warm *Warm, cache *ComponentCache, plan *engine.Plan) (*Result, *Warm, error) {
	opts = opts.withDefaults()
	start := time.Now()
	atoms := g.Atoms()
	next := warm
	if next == nil {
		next = &Warm{}
	}
	// Growing the tables leaves every slot the kernels read as it was,
	// and lets swap clear the slots of any record leaving the cache.
	next.Z = growTable(next.Z, cs.SlotCount())
	next.U = growTable(next.U, cs.SlotCount())

	res := &Result{Potentials: cs.Len()}
	stats := &ground.ComponentStats{}
	pass, err := engine.Run(plan, warm != nil && cache.unconverged == 0, opts.Parallelism, cache.comps,
		// An unconverged solve is not a solution to reuse: treat the
		// component as dirty so ADMM resumes (warm-started from the
		// previous iterates) instead of freezing the unconverged state.
		func(_ int, e *compEntry) bool { return e.converged },
		func(i int) (compEntry, error) {
			pots, slots := hinges(plan, i, opts)
			return solveComponent(atoms, &plan.Comps[i], pots, slots, opts, warm), nil
		},
		// The kernels have read warm; from here on it becomes the next
		// state. A leaving record's slots are cleared before any are
		// written, since a slot can move between components.
		func(old, new *compEntry) {
			if old != nil {
				next.clearSlots(old)
				if !old.converged {
					cache.unconverged--
				}
			}
			if new != nil {
				if !new.converged {
					cache.unconverged++
				}
				stats.Solved++
				stats.Engine("admm")
				res.Iterations = max(res.Iterations, new.iterations)
				res.PrimalResidual = max(res.PrimalResidual, new.primal)
				res.DualResidual = max(res.DualResidual, new.dual)
				res.RepairFlips += new.repairFlips
			}
		})
	if err != nil {
		return nil, nil, err
	}
	for k := range pass.Records {
		next.setSlots(&pass.Records[k])
	}
	n := atoms.Len()
	next.Values = engine.Merge(pass, next.Values, n, func(e *compEntry) []float64 { return e.values })
	next.Truth = engine.Merge(pass, next.Truth, n, func(e *compEntry) []bool { return e.truth })

	plan.FillStats(stats)
	res.Converged = cache.unconverged == 0
	res.Values = next.Values
	res.Truth = next.Truth
	res.TruthDelta = pass.Delta
	res.Components = stats
	res.Runtime = time.Since(start)
	return res, next, nil
}

// growTable extends an iterate table to cover n slots.
func growTable(t [][]float64, n int) [][]float64 {
	if n > len(t) {
		t = append(t, make([][]float64, n-len(t))...)
	}
	return t
}

// setSlots writes a record's iterates into the slot tables.
func (w *Warm) setSlots(e *compEntry) {
	for j, s := range e.slots {
		w.Z[s], w.U[s] = e.z[j], e.u[j]
	}
}

// clearSlots empties the table slots of a record leaving the state.
func (w *Warm) clearSlots(e *compEntry) {
	for _, s := range e.slots {
		w.Z[s], w.U[s] = nil, nil
	}
}

// hinges converts component i's clauses (already in dense local
// numbering) into its HL-MRF potentials plus their stable clause-set
// slots (for warm iterates and caching).
func hinges(plan *engine.Plan, i int, opts Options) ([]hinge, []int32) {
	clauses, slots := plan.Clauses(i)
	return toHinges(clauses, opts), slots
}

// solveComponent runs consensus ADMM over one component's potentials
// and priors, discretises, and repairs broken hard potentials. Values
// within tieBand tolerances below the threshold round up: ADMM stops
// within about one tolerance of the optimum, and an optimum exactly on
// the threshold (Figure 7's worksFor: a confidence-0.5 fact held up only
// by KeepBias, behind one soft rule) should not flip with the side it
// was approached from. Repair breaks ties — a clique of equally
// confident exclusive facts holds every member at exactly 0.5 — on the
// prior targets and literal order, never on the stopping noise (see
// repairHard).
func solveComponent(atoms *ground.AtomTable, comp *ground.Component, potentials []hinge, slots []int32, opts Options, warm *Warm) compEntry {
	n := len(comp.Atoms)
	target, priorW := priors(atoms, comp, opts)
	var init *admmInit
	if warm != nil {
		init = &admmInit{
			x: make([]float64, n),
			z: make([][]float64, len(potentials)),
			u: make([][]float64, len(potentials)),
		}
		for li, a := range comp.Atoms {
			if int(a) < len(warm.Values) {
				init.x[li] = clamp01(warm.Values[a])
			} else {
				init.x[li] = target[li]
			}
		}
		for k := range potentials {
			init.z[k] = warmIterate(warm.Z, slots[k], len(potentials[k].vars))
			init.u[k] = warmIterate(warm.U, slots[k], len(potentials[k].vars))
		}
	}
	res, zs, us := runADMM(n, target, priorW, potentials, opts, init)
	truth := discretize(res.Values, opts.Threshold, opts.Eps)
	flips := repairHard(truth, res.Values, target, potentials, opts.Eps)

	return compEntry{
		values: res.Values, truth: truth, slots: slots, z: zs, u: us,
		converged:  res.Converged,
		iterations: res.Iterations,
		primal:     res.PrimalResidual, dual: res.DualResidual,
		repairFlips: flips,
	}
}

// priors returns the quadratic prior of each of the component's atoms:
// its target (an evidence atom's confidence plus KeepBias, 0 for a
// derived atom) and its weight.
func priors(atoms *ground.AtomTable, comp *ground.Component, opts Options) (target, priorW []float64) {
	n := len(comp.Atoms)
	buf := make([]float64, 2*n)
	target, priorW = buf[:n:n], buf[n:]
	for li, a := range comp.Atoms {
		info := atoms.Info(a)
		if info.Evidence {
			target[li] = clamp01(info.Conf + opts.KeepBias)
			priorW[li] = opts.EvidenceWeight
		} else {
			priorW[li] = opts.DerivedWeight
		}
	}
	return target, priorW
}

// warmIterate returns the table's iterate for slot when it fits a
// potential over n variables; nil (a cold start) otherwise.
func warmIterate(table [][]float64, slot int32, n int) []float64 {
	if int(slot) < len(table) && len(table[slot]) == n {
		return table[slot]
	}
	return nil
}
