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
// merge order, and the (key, generation, membership) iterate cache —
// lives in internal/engine and is shared with the MLN backend and the
// repair read-out; this file contributes only the ADMM kernel. Each
// component converges on its own residuals rather than waiting for a
// global criterion.
//
// The strictly convex objective has a unique optimum; a component's
// ADMM stops once its residuals fall below the tolerance, and where that
// is depends on the start (cold or warm). Discretisation therefore
// allows the same tolerance below the threshold (see solveComponent).

// ComponentCache carries per-component converged ADMM iterates across
// the incremental engine's solves. Construct with NewComponentCache.
// Not safe for concurrent use.
type ComponentCache struct {
	comps *engine.Cache[compEntry]
}

// NewComponentCache returns an empty cache.
func NewComponentCache() *ComponentCache {
	return &ComponentCache{comps: engine.NewCache[compEntry]()}
}

// store returns the underlying per-component iterate cache; nil-safe.
func (c *ComponentCache) store() *engine.Cache[compEntry] {
	if c == nil {
		return nil
	}
	return c.comps
}

type compEntry struct {
	// values and truth are aligned with the component's atoms; z and u
	// are keyed by the potentials' stable clause-set slots.
	values []float64
	truth  []bool
	z, u   map[int32][]float64
	// converged records whether ADMM met its tolerance; unconverged
	// entries are never reused (the reuse hook demotes them to dirty),
	// so the component is iterated again — warm-started — on the next
	// solve.
	converged bool
}

type compState struct {
	values      []float64
	truth       []bool
	z, u        map[int32][]float64
	iterations  int
	converged   bool
	primal      float64
	dual        float64
	repairFlips int
}

// MAPGroundComponents computes the HL-MRF MAP state over an
// already-closed grounder and its full clause set by running ADMM per
// conflict component; forward chaining and grounding are the caller's
// responsibility (Close/GroundProgram, or CloseDelta/GroundDelta on a
// session engine). warm, when non-nil, seeds dirty components from the
// previous solve's iterates; cache, when non-nil, is consulted for
// unchanged components and updated with this solve's iterates. plan,
// when non-nil, is the shared decomposition built by the caller; nil
// builds one here. The returned Warm feeds the next solve.
func MAPGroundComponents(g *ground.Grounder, cs *ground.ClauseSet, opts Options, warm *Warm, cache *ComponentCache, plan *engine.Plan) (*Result, *Warm, error) {
	opts = opts.withDefaults()
	g.Parallelism = opts.Parallelism
	start := time.Now()
	atoms := g.Atoms()
	if plan == nil {
		plan = engine.NewPlan(atoms, cs)
	}

	// ADMM keeps visiting every component: an unconverged one must be
	// re-offered every solve, so the change set is not the whole story.
	store := cache.store()
	scope, _ := plan.Scope(0)
	results, cached, err := engine.Run(plan, scope, opts.Parallelism, store,
		func(i int, e compEntry) (compState, bool) {
			if !e.converged {
				// An unconverged solve is not a solution to reuse: treat
				// the component as dirty so ADMM resumes (warm-started from
				// the previous iterates) instead of freezing the
				// unconverged state.
				return compState{}, false
			}
			return compState{values: e.values, truth: e.truth, z: e.z, u: e.u, converged: true}, true
		},
		func(i int) (compState, error) {
			pots, slots := hinges(plan, i, opts)
			return solveComponent(atoms, &plan.Comps[i], pots, slots, opts, warm), nil
		})
	if err != nil {
		return nil, nil, err
	}

	// Deterministic merge in component order (the scope is every
	// component, so positions in it are component indexes).
	values := make([]float64, atoms.Len())
	truth := make([]bool, atoms.Len())
	stats := &ground.ComponentStats{}
	res := &Result{Converged: true, Potentials: cs.Len()}
	next := &Warm{
		Values: values,
		Z:      make(map[int32][]float64, cs.Len()),
		U:      make(map[int32][]float64, cs.Len()),
	}
	for i := range plan.Comps {
		r := &results[i]
		for li, a := range plan.Comps[i].Atoms {
			values[a] = r.values[li]
			truth[a] = r.truth[li]
		}
		for slot, z := range r.z {
			next.Z[slot] = z
		}
		for slot, u := range r.u {
			next.U[slot] = u
		}
		plan.Observe(stats, i, cached[i], "admm", false)
		if r.iterations > res.Iterations {
			res.Iterations = r.iterations
		}
		if r.primal > res.PrimalResidual {
			res.PrimalResidual = r.primal
		}
		if r.dual > res.DualResidual {
			res.DualResidual = r.dual
		}
		res.Converged = res.Converged && r.converged
		res.RepairFlips += r.repairFlips
		if !cached[i] {
			store.Put(&plan.Comps[i], compEntry{
				values: r.values, truth: r.truth, z: r.z, u: r.u,
				converged: r.converged,
			})
		}
	}
	store.Settle(plan, nil)
	res.Values = values
	res.Truth = truth
	res.Components = stats
	res.Runtime = time.Since(start)
	return res, next, nil
}

// hinges converts component i's clauses (already in dense local
// numbering) into its HL-MRF potentials plus their stable clause-set
// slots (for warm duals and caching).
func hinges(plan *engine.Plan, i int, opts Options) ([]hinge, []int32) {
	clauses, slots := plan.Clauses(i)
	pots := make([]hinge, len(clauses))
	for k, c := range clauses {
		pots[k] = clauseToHinge(c, opts)
	}
	return pots, slots
}

// solveComponent runs consensus ADMM over one component's potentials
// and priors, discretises, and repairs broken hard potentials. Values
// within the convergence tolerance below the threshold round up: ADMM
// stops about that far short of the optimum, and an optimum exactly on
// the threshold (Figure 7's worksFor: a confidence-0.5 fact held up only
// by KeepBias, behind one soft rule) should not flip with the side it
// was approached from.
func solveComponent(atoms *ground.AtomTable, comp *ground.Component, potentials []hinge, slots []int32, opts Options, warm *Warm) compState {
	n := len(comp.Atoms)
	target := make([]float64, n)
	priorW := make([]float64, n)
	for li, a := range comp.Atoms {
		info := atoms.Info(a)
		if info.Evidence {
			target[li] = clamp01(info.Conf + opts.KeepBias)
			priorW[li] = opts.EvidenceWeight
		} else {
			target[li] = 0
			priorW[li] = opts.DerivedWeight
		}
	}
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
			if z, ok := warm.Z[slots[k]]; ok && len(z) == len(potentials[k].vars) {
				init.z[k] = z
			}
			if u, ok := warm.U[slots[k]]; ok && len(u) == len(potentials[k].vars) {
				init.u[k] = u
			}
		}
	}
	res, zs, us := runADMM(n, target, priorW, potentials, opts, init)
	truth := discretize(res.Values, opts.Threshold-opts.Eps)
	flips := repairHard(truth, res.Values, potentials)

	st := compState{
		values: res.Values, truth: truth,
		z:          make(map[int32][]float64, len(potentials)),
		u:          make(map[int32][]float64, len(potentials)),
		iterations: res.Iterations, converged: res.Converged,
		primal: res.PrimalResidual, dual: res.DualResidual,
		repairFlips: flips,
	}
	for k := range potentials {
		st.z[slots[k]] = zs[k]
		st.u[slots[k]] = us[k]
	}
	return st
}
