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
// it runs one resolveUnit per component in the shared component pass
// (engine.Run) and records each component's finished read-out under
// (component key, generation, membership): the read-out's records in
// the live lists, its ids in the cache. The pass visits the scope the
// plan answers for the cache: the planner's change set when the solver
// and the cache are both exactly one sync behind, every component
// otherwise; the records it replaces or retires leave the live lists.
// Reusing a cached unit is sound because a unit
// depends only on the component's clauses, its atoms'
// evidence/confidence state (both covered by the generation) and its
// slice of the MAP state (checked explicitly, for every visited
// component, against the output the cache last settled against; vouched
// for by the solver's TruthDelta outside a change-set scope).

// ComponentCache is a session's read-out state across solves: one
// record per conflict component (the ids and counters of its read-out
// unit), the MAP state of the output it last settled against, and the
// live outcome those records sum to (see live.go), plus the reusable
// confidence scratch buffer (per-update allocation churn on the
// read-out hot path shows up directly in repair-stage latency).
// Construct with NewComponentCache. Not safe for concurrent use. The
// cache must be dropped when anything outside the (generation, truth)
// invariant changes the read-out: a threshold or solver kernel change,
// or a ColdStart (core.Session does this).
type ComponentCache struct {
	units *engine.Cache[compUnit]
	conf  []float64 // scratch, indexed by atom id

	// truth and values are the Truth and SoftValues (nil for MLN) of the
	// output the records were last settled against — held, not copied:
	// a solve never writes a vector it returned. Every held record was
	// computed under them on its component's atoms: a pass recomputes a
	// unit, reuses it after an equal comparison (sameMAP), or skips a
	// component whose truth the solver's TruthDelta vouches is unchanged.
	truth  []bool
	values []float64

	// The live outcome: the global record lists and the exact sum of the
	// removed facts' confidences, always the sum of the held records.
	kept, inferred    List[fact]
	removed           List[removedFact]
	clusters          List[cluster]
	removedWeight     engine.ExactSum
	violations        map[string]int
	thresholdFiltered int
}

// NewComponentCache returns an empty cache; its first read-out reports
// the full state as added.
func NewComponentCache() *ComponentCache {
	return &ComponentCache{
		units:      engine.NewCache[compUnit](),
		violations: make(map[string]int),
	}
}

// confScratch returns a zero-filling-free confidence buffer covering n
// atoms; units overwrite their own scope's entries before reading them.
func (c *ComponentCache) confScratch(n int) []float64 {
	if cap(c.conf) < n {
		c.conf = make([]float64, n)
	}
	return c.conf[:n]
}

// compUnit is one component's cache record: what the live outcome holds
// of its read-out (the ids its records sit under, and its counters). A
// unit computed in this pass also carries its full read-out in fresh
// until record hands it to the outcome; a stored record never does, so
// every fact and cluster record is held once, in the lists.
type compUnit struct {
	held
	fresh *unit
}

// ResolveComponents interprets the translator output as a conflict
// resolution computed per conflict component, reusing cached
// per-component read-outs for components whose subproblem and MAP
// assignment are unchanged. plan is the shared decomposition the solver
// stage already built and cache the session's read-out state
// (NewComponentCache for a one-off read-out); both are required. The
// Outcome is delta-patched onto the cache's live lists and is
// byte-identical to whole-graph Resolve over the same state, at every
// Parallelism setting. The output must carry the solve's clause set
// (every session solve does). The program is not consulted — rule
// groundings are read from the clause set.
func ResolveComponents(out *translate.Output, _ *logic.Program, opts Options, plan *engine.Plan, cache *ComponentCache) (*Outcome, error) {
	run, err := BeginComponents(out, opts, plan, cache)
	if err != nil {
		return nil, err
	}
	oc, _ := run.Finish()
	return oc, nil
}

// ComponentRun is a component read-out paused between its two phases:
// BeginComponents runs the per-component analysis and updates the
// cache's records, Finish brings the Outcome in line with them. The split
// lets the session profile and time the two under their own pipeline
// stage labels ("repair" / "outcome"). Finish must follow every
// successful BeginComponents.
type ComponentRun struct {
	oc    *Outcome
	atoms *ground.AtomTable
	cache *ComponentCache
	// subtract are the records leaving the outcome (stale records of
	// re-repaired components, and records of components that left the
	// partition); add are the units entering it.
	subtract []held
	add      []*unit
	start    time.Time
}

// BeginComponents runs the analysis phase of the component-decomposed
// read-out — the per-component repair units, reusing cached ones — and
// records the fresh units in the cache, leaving the Outcome to Finish.
// See ResolveComponents for semantics.
func BeginComponents(out *translate.Output, opts Options, plan *engine.Plan, cache *ComponentCache) (*ComponentRun, error) {
	if out.Clauses == nil {
		return nil, fmt.Errorf("repair: component read-out needs the solve's clause set (solver %v kept none)", out.Solver)
	}
	start := time.Now()
	oc := newOutcome(out)
	rs := oc.Stats.Repair
	rs.Mode = RepairComponents

	atoms := out.Grounder.Atoms()
	// Shared across units: each writes only its own component's atoms,
	// so disjoint components repair concurrently.
	conf := cache.confScratch(atoms.Len())

	analysisStart := time.Now()
	run := &ComponentRun{oc: oc, atoms: atoms, cache: cache, start: start}
	// The change-set scope needs every link of the chain: the solver
	// vouches that truth outside it is bit-identical to the previous solve
	// (TruthDelta), and the cache must have been settled against the
	// previous generation. Any gap scopes every component.
	var err error
	run.subtract, run.add, err = cache.pass(plan, out.TruthDelta(), opts.Parallelism,
		func(i int, _ *compUnit) bool {
			// The generation covers clauses and evidence state; the MAP
			// state is the solver's to change, so compare it explicitly
			// against the one the records were settled under.
			return cache.sameMAP(&plan.Comps[i], out)
		},
		func(i int) (compUnit, error) {
			return computeUnit(out, &plan.Comps[i], conf, opts), nil
		})
	if err != nil {
		return nil, err
	}
	rs.Analysis = time.Since(analysisStart)
	cache.truth, cache.values = out.Truth, out.SoftValues
	// Every component that was not re-repaired is a cache reuse.
	rs.Repaired = len(run.add)
	rs.Components = len(plan.Comps)
	rs.Reused = rs.Components - rs.Repaired
	return run, nil
}

// pass runs the read-out's component pass on the shared engine, with
// reuse and solve as in engine.Run. Every record the pass replaces or
// retires is returned for subtraction from the live lists; every unit
// it installs is returned as added and stored as its held ids only.
func (c *ComponentCache) pass(plan *engine.Plan, chained bool, parallelism int,
	reuse func(i int, u *compUnit) bool, solve func(i int) (compUnit, error),
) (subtract []held, add []*unit, err error) {
	_, err = engine.Run(plan, chained, parallelism, c.units, reuse, solve, func(old, new *compUnit) {
		if old != nil {
			subtract = append(subtract, old.held)
		}
		if new != nil {
			add = append(add, new.fresh)
			new.held, new.fresh = new.fresh.hold(), nil
		}
	})
	return subtract, add, err
}

// sameMAP reports whether the output carries, on the component's atoms,
// the MAP state the records were last settled against: the discrete
// assignment, and on the PSL path the soft values too (they feed derived
// confidences, and a re-run of an unconverged component moves them
// under an unchanged truth and generation).
func (c *ComponentCache) sameMAP(comp *ground.Component, out *translate.Output) bool {
	if out.SoftValues != nil && c.values == nil {
		return false
	}
	for _, a := range comp.Atoms {
		if c.truth[a] != out.Truth[a] || (out.SoftValues != nil && c.values[a] != out.SoftValues[a]) {
			return false
		}
	}
	return true
}

// computeUnit runs one component's repair read-out.
func computeUnit(out *translate.Output, comp *ground.Component, conf []float64, opts Options) compUnit {
	// Gather the component's live clause slots once; both passes of the
	// read-out (confidence supports, conflict/violation scan) iterate
	// the same list.
	slots := out.Clauses.ComponentSlots(comp.Atoms)
	forEach := func(fn func(int32, *ground.Clause) bool) {
		out.Clauses.ForEachSlots(slots, fn)
	}
	u := resolveUnit(out, comp.Atoms, forEach, conf, opts)
	return compUnit{fresh: &u}
}

// Finish produces the Outcome from the analysis phase: the cache's live
// lists are patched — subtract the leaving units, splice in the entering
// ones — and materialized, and the records of that churn are returned,
// undecoded, as the update's changelog. The Outcome and the changelog
// render their records through a view of the atom table captured here,
// so Finish must run where the table has no writer (the session lock);
// what it returns is then safe to read from any goroutine while later
// solves intern new atoms.
func (r *ComponentRun) Finish() (*Outcome, *OutcomeDelta) {
	oc, c := r.oc, r.cache
	rs, os := oc.Stats.Repair, oc.Stats.Outcome
	os.Patched = len(r.add)
	view := r.atoms.KeyView()
	indexStart := time.Now()
	d := c.apply(r.subtract, r.add, view)
	os.Index = time.Since(indexStart)
	mergeStart := time.Now()
	c.materialize(oc, view)
	rs.Merge = time.Since(mergeStart)
	os.Mode = OutcomeLive
	os.Reused = rs.Reused
	os.Merge = rs.Merge
	os.Total = os.Index + os.Merge
	rs.Total = time.Since(r.start)
	return oc, d
}
