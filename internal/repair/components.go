package repair

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/par"
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
// layer (internal/engine), caches each component's finished read-out
// under (component key, generation, membership) plus the component's
// MAP assignment, and on an incremental update re-repairs only the
// components the delta dirtied. Reusing a cached unit is sound because
// a unit depends only on the component's clauses, its atoms'
// evidence/confidence state (both covered by the generation) and its
// slice of the MAP state (checked explicitly against the cached
// assignment).

// ComponentCache carries per-component repair read-outs across the
// incremental engine's solves, plus the reusable confidence scratch
// buffer (per-update allocation churn on the read-out hot path shows up
// directly in repair-stage latency). Construct with NewComponentCache.
// Not safe for concurrent use. The cache must be dropped when anything
// outside the (generation, truth) invariant changes the read-out: a
// threshold or solver change, or a ColdStart (core.Session does this).
type ComponentCache struct {
	units *engine.Cache[compUnit]
	conf  []float64 // scratch, indexed by atom id

	// gen/complete gate the dirty-only analysis: complete means units
	// holds, for every component of plan generation gen, a read-out
	// verified against that solve's truth (set by the full pass,
	// preserved by dirty-only ones).
	gen      uint64
	complete bool
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
// solve's atom-indexed clause set (every MLN/PSL solve does); the
// cutting-plane and greedy read-out is Resolve. The program is not
// consulted — rule groundings are read from the clause set.
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
	oc     *Outcome
	plan   *engine.Plan
	units  []compUnit
	cached []bool
	live   *LiveOutcome
	start  time.Time
	// dirtyOnly marks an analysis restricted to the planner's change
	// set: units/cached are indexed by position in dirty, not by
	// component.
	dirtyOnly bool
	dirty     []int32
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
	if live != nil {
		live.deferSplices = opts.DeltaOnly
	}
	// The dirty-only analysis needs every link of the chain: the solver
	// vouches that truth outside the plan's dirty components is
	// bit-identical to the previous solve (TruthDelta), the unit cache
	// covers the previous generation completely with verified units, and
	// the live outcome holds every component of that generation. Any gap
	// falls back to the full pass, which re-anchors all three cursors.
	if cache != nil && live != nil && plan.Maintained() && out.TruthDelta() &&
		cache.complete && cache.gen+1 == plan.Gen() && live.CurrentFor(plan) {
		return beginComponentsDirty(out, opts, plan, cache, live, oc, start)
	}
	// Shared across units: each writes only its own component's atoms,
	// so disjoint components repair concurrently.
	conf := cache.confScratch(atoms.Len())

	var unitCache *engine.Cache[compUnit]
	if cache != nil {
		unitCache = cache.units
	}
	analysisStart := time.Now()
	units, cached, err := engine.Run(plan, opts.Parallelism, unitCache,
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
	rs.Components = len(plan.Comps)
	for _, c := range cached {
		if c {
			rs.Reused++
		} else {
			rs.Repaired++
		}
	}
	// A maintained plan names exactly which component keys left the
	// partition, so the cache churns one entry per dirty component
	// instead of rebuilding the whole table.
	if plan.Maintained() {
		for _, key := range plan.Retired() {
			unitCache.Drop(key)
		}
		for i := range plan.Comps {
			if !cached[i] {
				unitCache.Put(&plan.Comps[i], units[i])
			}
		}
	} else {
		unitCache.Replace(plan.Comps, func(i int) compUnit { return units[i] })
	}
	if cache != nil {
		// The full pass verified (or recomputed) a unit for every
		// component against this solve's truth: the cursor re-anchors.
		cache.gen = plan.Gen()
		cache.complete = true
	}
	return &ComponentRun{oc: oc, plan: plan, units: units, cached: cached, live: live, start: start, deltaOnly: opts.DeltaOnly}, nil
}

// beginComponentsDirty is the analysis phase restricted to the
// planner's change set: only the plan's DirtyComps are verified against
// the cache or recomputed — every other component's cached unit is
// reused without a truth comparison, sound because the solver's
// dirty-only merge carried its atoms' truth forward bit-for-bit and the
// cache cursor proves the unit was verified against exactly that truth
// one generation ago.
func beginComponentsDirty(out *translate.Output, opts Options, plan *engine.Plan, cache *ComponentCache, live *LiveOutcome, oc *Outcome, start time.Time) (*ComponentRun, error) {
	rs := oc.Stats.Repair
	rs.Mode = RepairComponents
	atoms := out.Grounder.Atoms()
	conf := cache.confScratch(atoms.Len())
	dirty := plan.DirtyComps()

	analysisStart := time.Now()
	units := make([]compUnit, len(dirty))
	cached := make([]bool, len(dirty))
	var solve []int
	for k, ci := range dirty {
		comp := &plan.Comps[ci]
		if e, ok := cache.units.Lookup(comp); ok && unitMatches(&e, comp, out) {
			units[k] = e
			cached[k] = true
			continue
		}
		solve = append(solve, k)
	}
	par.Do(len(solve), par.Workers(opts.Parallelism), func(j int) {
		k := solve[j]
		units[k] = computeUnit(out, &plan.Comps[dirty[k]], conf, opts)
	})
	rs.Analysis = time.Since(analysisStart)
	rs.Components = len(plan.Comps)
	rs.Repaired = len(solve)
	rs.Reused = len(plan.Comps) - len(solve)

	for _, key := range plan.Retired() {
		cache.units.Drop(key)
	}
	for k, ci := range dirty {
		if !cached[k] {
			cache.units.Put(&plan.Comps[ci], units[k])
		}
	}
	cache.gen = plan.Gen()
	return &ComponentRun{oc: oc, plan: plan, units: units, cached: cached, live: live,
		start: start, dirtyOnly: true, dirty: dirty, deltaOnly: opts.DeltaOnly}, nil
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

	// Live path: dirty components subtract their previous contribution
	// and splice in the new one; clean components' held patches stand.
	// A repair-cache hit (cached[i]) proves the unit content unchanged
	// since the last component solve, and the engine-cache lookup inside
	// sync proves the live outcome still holds that component — both
	// must hold for a skip.
	indexStart := time.Now()
	if r.dirtyOnly {
		// units/cached are indexed by position in r.dirty; only those
		// components are touched, the rest of the live outcome stands
		// without an engine-cache probe.
		live.syncDirty(plan,
			func(k int) bool { return cached[k] },
			func(k int) *Patch {
				u := &units[k].unit
				return &Patch{
					Component:         plan.Comps[r.dirty[k]].Key,
					Kept:              u.kept,
					Removed:           u.removed,
					Inferred:          u.inferred,
					Clusters:          u.clusters,
					Violations:        u.violations,
					ThresholdFiltered: u.thresholdFiltered,
				}
			})
	} else {
		var retired []ground.AtomID
		if plan.Maintained() {
			retired = plan.Retired()
			if retired == nil {
				retired = []ground.AtomID{}
			}
		}
		live.sync(plan.Comps, retired,
			func(i int) bool { return cached[i] },
			func(i int) *Patch {
				u := &units[i].unit
				return &Patch{
					Component:         plan.Comps[i].Key,
					Kept:              u.kept,
					Removed:           u.removed,
					Inferred:          u.inferred,
					Clusters:          u.clusters,
					Violations:        u.violations,
					ThresholdFiltered: u.thresholdFiltered,
				}
			})
		// A full sync re-anchors the live cursor: every component of
		// this generation was either patched in or verified held.
		live.gen = plan.Gen()
		live.complete = true
	}
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
