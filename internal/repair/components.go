package repair

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/translate"
)

// Component-decomposed conflict resolution.
//
// Clauses never cross conflict components, so every piece of the
// read-out — fact classification, confidence propagation, conflict
// clusters, explanations, violation counts — is a per-component
// computation followed by a deterministic merge. ResolveComponents is
// the repair layer's counterpart of the solvers' MAPGroundComponents:
// it runs one resolveUnit per component on the shared orchestration
// layer (internal/engine) and caches each component's finished read-out
// under (component key, generation, membership) plus the component's
// MAP assignment. There is one analysis pass, over the scope the plan
// answers for the unit cache's generation (engine.Plan.Scope): the
// planner's change set when the solver, the unit cache and the live
// outcome are all exactly one sync behind, every component otherwise.
// Reusing a cached unit is sound because a unit depends only on the
// component's clauses, its atoms' evidence/confidence state (both
// covered by the generation) and its slice of the MAP state (checked
// explicitly against the cached assignment for every visited component;
// vouched for by the solver's TruthDelta outside a change-set scope).

// ComponentCache carries per-component repair read-outs across the
// incremental engine's solves, plus the reusable confidence scratch
// buffer (per-update allocation churn on the read-out hot path shows up
// directly in repair-stage latency). Construct with NewComponentCache.
// Not safe for concurrent use. The cache must be dropped when anything
// outside the (generation, truth) invariant changes the read-out: a
// threshold, solver kernel or tuning change, or a ColdStart
// (core.Session does this).
type ComponentCache struct {
	units *engine.Cache[compUnit]
	conf  []float64 // scratch, indexed by atom id
}

// NewComponentCache returns an empty cache.
func NewComponentCache() *ComponentCache {
	return &ComponentCache{units: engine.NewCache[compUnit]()}
}

// confScratch returns a zero-filling-free confidence buffer covering n
// atoms; units overwrite their own scope's entries before reading them.
func (c *ComponentCache) confScratch(n int) []float64 {
	if c == nil {
		return make([]float64, n)
	}
	if cap(c.conf) < n {
		c.conf = make([]float64, n)
	}
	return c.conf[:n]
}

// compUnit is one component's cached read-out plus the component-local
// MAP state it was computed under: the discrete assignment and, on the
// PSL path, the soft values (which feed derived confidences — an
// unconverged component's ADMM can resume and move them while the
// discrete truth and the generation both stand still).
type compUnit struct {
	unit
	truth  []bool    // aligned with the component's atoms
	values []float64 // aligned with the component's atoms; nil for MLN
}

// ResolveComponents interprets the translator output as a conflict
// resolution computed per conflict component, reusing cached
// per-component read-outs for components whose subproblem and MAP
// assignment are unchanged. plan, when non-nil, is the shared
// decomposition the solver stage already built; nil builds one here.
// The merged Outcome is byte-identical to whole-graph Resolve over the
// same state, at every Parallelism setting. The output must carry the
// solve's atom-indexed clause set (every session solve does). The
// program is not consulted — rule groundings are read from the clause
// set.
func ResolveComponents(out *translate.Output, _ *logic.Program, opts Options, plan *engine.Plan, cache *ComponentCache) (*Outcome, error) {
	run, err := BeginComponents(out, opts, plan, cache, nil)
	if err != nil {
		return nil, err
	}
	oc, _, err := run.Finish()
	return oc, err
}

// ComponentRun is a component read-out paused between its two phases:
// BeginComponents runs the per-component analysis, Finish produces the
// Outcome. The split lets the session profile and time the two under
// their own pipeline stage labels ("repair" / "outcome").
type ComponentRun struct {
	oc   *Outcome
	plan *engine.Plan
	// scope lists the components the analysis visited; units and cached
	// are indexed by position in it.
	scope     []int32
	units     []compUnit
	cached    []bool
	live      *LiveOutcome
	start     time.Time
	deltaOnly bool
}

// BeginComponents runs the analysis phase of the component-decomposed
// read-out — the per-component repair units, reusing cached ones —
// leaving the Outcome to Finish. With live non-nil, Finish delta-patches
// the Outcome on it instead of assembling from scratch and returns the
// changelog of what entered or left each list this solve; live must be
// synced by every solve it survives (the session owns and invalidates
// it). See ResolveComponents for semantics.
func BeginComponents(out *translate.Output, opts Options, plan *engine.Plan, cache *ComponentCache, live *LiveOutcome) (*ComponentRun, error) {
	if out.Clauses == nil || !out.Clauses.HasAtomIndex() {
		return nil, fmt.Errorf("repair: component read-out needs the solve's atom-indexed clause set (solver %v kept none)", out.Solver)
	}
	opts = opts.withDefaults()
	start := time.Now()
	oc := newOutcome(out)
	rs := oc.Stats.Repair
	rs.Mode = RepairComponents
	rs.Repaired = 0

	atoms := out.Grounder.Atoms()
	if plan == nil {
		plan = engine.NewPlan(atoms, out.Clauses)
	}
	var unitCache *engine.Cache[compUnit]
	if cache != nil {
		unitCache = cache.units
	}
	// The change-set scope needs every link of the chain: the solver
	// vouches that truth outside it is bit-identical to the previous solve
	// (TruthDelta), and the unit cache and the live outcome were settled
	// against the same generation, which Scope then requires to be the
	// previous one. Any gap scopes every component — as does a read-out
	// without a live outcome, whose assembly needs every unit.
	var have uint64
	if live != nil {
		live.deferSplices = opts.DeltaOnly
		if out.TruthDelta() && live.held.Gen() == unitCache.Gen() {
			have = unitCache.Gen()
		}
	}
	scope, _ := plan.Scope(have)
	// Shared across units: each writes only its own component's atoms,
	// so disjoint components repair concurrently.
	conf := cache.confScratch(atoms.Len())

	analysisStart := time.Now()
	units, cached, err := engine.Run(plan, scope, opts.Parallelism, unitCache,
		func(i int, e compUnit) (compUnit, bool) {
			// The generation covers clauses and evidence state; the MAP
			// state is the solver's to change, so compare it explicitly
			// against the cached one (see unitMatches).
			if unitMatches(&e, &plan.Comps[i], out) {
				return e, true
			}
			return compUnit{}, false
		},
		func(i int) (compUnit, error) {
			return computeUnit(out, &plan.Comps[i], conf, opts), nil
		})
	if err != nil {
		return nil, err
	}
	rs.Analysis = time.Since(analysisStart)
	for k, ci := range scope {
		if !cached[k] {
			rs.Repaired++
			unitCache.Put(&plan.Comps[ci], units[k])
		}
	}
	// Every component that was not re-repaired is a cache reuse.
	rs.Components = len(plan.Comps)
	rs.Reused = rs.Components - rs.Repaired
	unitCache.Settle(plan, nil)
	return &ComponentRun{oc: oc, plan: plan, scope: scope, units: units, cached: cached, live: live, start: start, deltaOnly: opts.DeltaOnly}, nil
}

// unitMatches reports whether the cached unit was computed under the
// same component-local MAP state the current output carries: the
// discrete assignment, and on the PSL path the soft values too (a
// re-run of an unconverged component moves them under an unchanged
// truth and generation).
func unitMatches(e *compUnit, comp *ground.Component, out *translate.Output) bool {
	for li, a := range comp.Atoms {
		if e.truth[li] != out.Truth[a] {
			return false
		}
	}
	if out.SoftValues != nil {
		if e.values == nil {
			return false
		}
		for li, a := range comp.Atoms {
			if e.values[li] != out.SoftValues[a] {
				return false
			}
		}
	}
	return true
}

// computeUnit runs one component's repair read-out and snapshots the
// MAP state it was computed under.
func computeUnit(out *translate.Output, comp *ground.Component, conf []float64, opts Options) compUnit {
	// Gather the component's live clause slots once; both passes of the
	// read-out (confidence supports, conflict/violation scan) iterate
	// the same list.
	slots := out.Clauses.ComponentSlots(comp.Atoms)
	forEach := func(fn func(int32, *ground.Clause) bool) {
		out.Clauses.ForEachSlots(slots, fn)
	}
	u := resolveUnit(out, comp.Atoms, forEach, conf, opts)
	cu := compUnit{unit: u, truth: make([]bool, len(comp.Atoms))}
	for li, a := range comp.Atoms {
		cu.truth[li] = out.Truth[a]
	}
	if out.SoftValues != nil {
		cu.values = make([]float64, len(comp.Atoms))
		for li, a := range comp.Atoms {
			cu.values[li] = out.SoftValues[a]
		}
	}
	return cu
}

// Finish produces the Outcome from the analysis phase: the sort/merge
// assembly when no live outcome is maintained, the delta-patched live
// sync otherwise.
func (r *ComponentRun) Finish() (*Outcome, *OutcomeDelta, error) {
	oc, plan, units, cached, live := r.oc, r.plan, r.units, r.cached, r.live
	rs := oc.Stats.Repair
	start := r.start

	os := oc.Stats.Outcome
	if live == nil {
		mergeStart := time.Now()
		merged := make([]*unit, len(units))
		for i := range units {
			merged[i] = &units[i].unit
		}
		assembleOutcome(oc, merged)
		rs.Merge = time.Since(mergeStart)
		os.Patched = len(units)
		os.Merge = rs.Merge
		os.Total = rs.Merge
		rs.Total = time.Since(start)
		return oc, nil, nil
	}

	// Live path: visited components subtract their previous contribution
	// and splice in the new one; every other held patch stands. A
	// repair-cache hit (cached[k]) proves the unit content unchanged
	// since the last component solve, and the engine-cache lookup inside
	// sync proves the live outcome still holds that component — both
	// must hold for a skip.
	indexStart := time.Now()
	live.sync(plan, r.scope,
		func(k int) bool { return cached[k] },
		func(k int) *Patch {
			u := &units[k].unit
			return &Patch{
				Component:         plan.Comps[r.scope[k]].Key,
				Kept:              u.kept,
				Removed:           u.removed,
				Inferred:          u.inferred,
				Clusters:          u.clusters,
				Violations:        u.violations,
				ThresholdFiltered: u.thresholdFiltered,
			}
		})
	os.Index = time.Since(indexStart)
	mergeStart := time.Now()
	if r.deltaOnly {
		live.materializeCounts(oc)
		os.Mode = OutcomeDeltaOnly
	} else {
		live.materialize(oc)
		os.Mode = OutcomeLive
	}
	rs.Merge = time.Since(mergeStart)
	os.Patched, os.Reused = live.patched, live.reused
	os.Merge = rs.Merge
	os.Total = os.Index + os.Merge
	rs.Total = time.Since(start)
	return oc, live.Delta(), nil
}
