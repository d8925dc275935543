// Package engine is the shared orchestration layer for
// component-decomposed incremental work. The ground network of a solve
// splits into independent conflict components (see
// internal/ground/components.go); everything the system computes over
// it — the MLN MaxSAT state, the PSL ADMM state, and the repair
// read-out — decomposes along that partition. This package owns the
// machinery all three consumers share, so each backend contributes only
// its per-component kernel:
//
//   - Plan: the decomposition of one solve — the component partition,
//     each component's atoms in canonical order
//     (ground.AtomTable.CompareCanonical), and per-component clause
//     gathering in dense local numbering, driven by the clause set's
//     atom index — and the one question every consumer asks it, Scope:
//     which components must I visit, given the generation my state was
//     settled against? The last sync's change set when exactly one
//     delta-patching sync behind, every component otherwise; there is
//     no separate full pass;
//   - Cache: a generic per-component payload cache keyed by (component
//     key, generation, membership), the invariant under which a
//     component's subproblem is provably unchanged, carrying the
//     generation cursor and ending every pass with Settle, which drops
//     what left the partition;
//   - Run: the scheduling loop over a scope — split its components into
//     reusable and dirty, process dirty ones concurrently on the shared
//     worker pool, return results in deterministic component order;
//   - SizeAgg: the component-size aggregate the solver kernels maintain
//     beside their caches, so both report identical statistics without
//     a per-solve pass over the partition.
package engine

import (
	"repro/internal/ground"
	"repro/internal/par"
)

// Plan is the component decomposition of one solve over an atom table
// and its persistent clause set. Build it once per solve (after any
// incremental sync) and hand it to every consumer — solver and repair —
// so all stages see the identical partition. A Plan is read-only after
// construction and safe for concurrent use.
type Plan struct {
	// Comps is the conflict-component partition of the live atoms,
	// ordered by each component's first atom, each component listing
	// its atoms in canonical order.
	Comps []ground.Component

	cs *ground.ClauseSet
	// localOfAtom maps each live atom id to its index within its
	// component. Being atom-indexed it does not shift when components
	// are re-listed, so the planner patches only touched components'
	// entries.
	localOfAtom []int32
	// maintained marks a plan delta-patched by a Planner sync (as
	// opposed to built from scratch). gen is the planner's sync
	// generation — bumped on every Planner.Sync, including empty-delta
	// and rebuild syncs (generation 1 is always a from-scratch build), and
	// 0 for a NewPlan. dirty, retired and dead are that sync's change set
	// (see Scope, Cache.Settle, RetractedAtoms).
	maintained bool
	gen        uint64
	dirty      []int32
	retired    []ground.AtomID
	dead       []ground.AtomID
}

// NewPlan partitions the clause set's ground network into conflict
// components in canonical order, reading cs's component index; Clauses
// walks its atom index to gather each component's own clauses on
// demand. No other engine state is touched. The plan has generation 0
// and scopes every component.
func NewPlan(atoms *ground.AtomTable, cs *ground.ClauseSet) *Plan {
	p := &Plan{
		Comps:       cs.Components(ground.CanonicalAtoms(atoms)),
		cs:          cs,
		localOfAtom: make([]int32, atoms.Len()),
	}
	// Components list their atoms in canonical order, so local numbering
	// is the canonical order restricted to the component.
	for ci := range p.Comps {
		for li, a := range p.Comps[ci].Atoms {
			p.localOfAtom[a] = int32(li)
		}
	}
	return p
}

// Local maps a global atom id to its component-local variable.
func (p *Plan) Local(a ground.AtomID) int32 { return p.localOfAtom[a] }

// chained reports whether state derived from generation have is exactly
// one delta-patching sync behind this plan, so that the sync's change
// set (dirty, retired, dead) is everything that differs. Any gap means
// intervening syncs whose change sets were never observed.
func (p *Plan) chained(have uint64) bool { return p.maintained && have+1 == p.gen }

// Scope returns the components (ascending indexes into Comps) a
// consumer holding state settled against generation have must visit,
// and whether that is a change set (delta) rather than the whole
// partition. Chained on the previous generation it is the components
// the last sync re-listed or generation-bumped: together with the
// retired keys (see Cache.Settle) and RetractedAtoms a superset of
// every change, so a component outside it has the same key, generation,
// membership, atom truth domain and clause subproblem it had under the
// previous plan. Otherwise — no state (have 0), a gap, a rebuilt plan, a
// NewPlan — it is every component: a full pass is a pass in which every
// component is dirty.
func (p *Plan) Scope(have uint64) (scope []int32, delta bool) {
	if p.chained(have) {
		return p.dirty, true
	}
	scope = make([]int32, len(p.Comps))
	for i := range scope {
		scope[i] = int32(i)
	}
	return scope, false
}

// RetractedAtoms returns the atoms the last Planner sync saw leave the
// live set — listed in the previous partition, retracted now — whose
// truth is pinned false from this generation on. Only meaningful under
// a delta Scope.
func (p *Plan) RetractedAtoms() []ground.AtomID { return p.dead }

// Clauses returns component i's live clauses in canonical order,
// remapped into the component's dense local variable space, plus their
// stable clause-set slots (for keying per-clause warm state). The gather
// walks only the component's own clauses, so incremental work stays
// proportional to what the delta dirtied. Safe to call concurrently for
// different components.
func (p *Plan) Clauses(i int) ([]ground.Clause, []int32) {
	return p.cs.ComponentClauses(p.Comps[i].Atoms, p.Local)
}

// SizeAgg is the running multiset of component sizes a solver kernel
// keeps beside its cache, so that its component statistics cost nothing
// per component outside the scope: a change-set pass removes the sizes
// of the records it replaces or retires and adds those of the records it
// installs, an all-component pass starts from the zero value and adds
// every component. The multiset is exact, so the statistics equal an
// all-component fold. The zero value is empty and ready to use. Not safe
// for concurrent use.
type SizeAgg struct {
	sizeCount map[int]int
	largest   int
	count     int
}

// Add accounts one component of size atoms.
func (g *SizeAgg) Add(size int) {
	if g.sizeCount == nil {
		// Sizes cluster on few distinct values; the multiset stays tiny.
		g.sizeCount = make(map[int]int)
	}
	g.sizeCount[size]++
	if size > g.largest {
		g.largest = size
	}
	g.count++
}

// Remove takes back one component of size atoms added earlier.
func (g *SizeAgg) Remove(size int) {
	if g.sizeCount[size]--; g.sizeCount[size] == 0 {
		delete(g.sizeCount, size)
		for g.largest > 0 && g.sizeCount[g.largest] == 0 {
			g.largest--
		}
	}
	g.count--
}

// Fill completes stats for a pass whose re-solved components the caller
// has already tallied (Solved, Engines, Fallbacks): the partition's
// shape comes from the aggregate, and every component that was not
// re-solved is a cache reuse ("cached").
func (g *SizeAgg) Fill(stats *ground.ComponentStats) {
	stats.Count = g.count
	stats.Largest = g.largest
	if g.count > 0 {
		stats.SizeHistogram = make(map[string]int, len(g.sizeCount))
		for size, c := range g.sizeCount {
			stats.SizeHistogram[ground.SizeBucket(size)] += c
		}
	}
	if reused := g.count - stats.Solved; reused > 0 {
		stats.Reused = reused
		if stats.Engines == nil {
			stats.Engines = make(map[string]int)
		}
		stats.Engines["cached"] += reused
	}
}

// Cache carries per-component payloads across incremental solves, keyed
// by (component key, generation, membership) — the triple under which a
// component's subproblem is provably unchanged — plus the plan
// generation its key set was last settled against (see Settle), the one
// cursor every consumer chains its change-set passes on. The zero value
// is not usable; construct with NewCache. Not safe for concurrent use.
type Cache[V any] struct {
	entries map[ground.AtomID]*cacheEntry[V]
	gen     uint64
}

type cacheEntry[V any] struct {
	gen   uint64
	atoms []ground.AtomID
	value V
}

// NewCache returns an empty cache.
func NewCache[V any]() *Cache[V] {
	return &Cache[V]{entries: make(map[ground.AtomID]*cacheEntry[V])}
}

// Lookup returns the cached payload when the component's subproblem is
// provably unchanged: same key, same generation, same membership.
func (c *Cache[V]) Lookup(comp *ground.Component) (V, bool) {
	var zero V
	e, ok := c.entries[comp.Key]
	if !ok || e.gen != comp.Gen || len(e.atoms) != len(comp.Atoms) {
		return zero, false
	}
	// The planner reuses a component's Atoms slice across syncs when its
	// membership is unchanged, so slice identity proves membership
	// without walking it.
	if len(e.atoms) > 0 && &e.atoms[0] == &comp.Atoms[0] {
		return e.value, true
	}
	for i, a := range comp.Atoms {
		if e.atoms[i] != a {
			return zero, false
		}
	}
	return e.value, true
}

// Each visits every cached payload with its component key, in no
// particular order; entry generations are not exposed — Lookup remains
// the only way to prove an entry current.
func (c *Cache[V]) Each(fn func(key ground.AtomID, value V)) {
	for k, e := range c.entries {
		fn(k, e.value)
	}
}

// Peek returns the payload stored under key regardless of generation
// or membership — the possibly-stale contribution a delta-maintaining
// consumer must subtract before installing a fresh one. Use Lookup
// when the payload is to be reused.
func (c *Cache[V]) Peek(key ground.AtomID) (V, bool) {
	var zero V
	e, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	return e.value, true
}

// Put installs a single component's payload under the component's
// current (key, generation, membership), overwriting any previous
// entry in place.
func (c *Cache[V]) Put(comp *ground.Component, value V) {
	if e, ok := c.entries[comp.Key]; ok {
		e.gen, e.atoms, e.value = comp.Gen, comp.Atoms, value
		return
	}
	c.entries[comp.Key] = &cacheEntry[V]{gen: comp.Gen, atoms: comp.Atoms, value: value}
}

// Gen returns the plan generation the cache was last settled against; 0
// before the first Settle.
func (c *Cache[V]) Gen() uint64 { return c.gen }

// Settle ends a consumer's pass over p: it drops the entries of
// components that left the partition, handing each dropped payload to
// gone (when non-nil) exactly once, and records p's generation. The
// caller must have visited at least p.Scope(c.Gen()) and Put every
// component it did not reuse, so every component of p is keyed. Chained
// on the previous generation, what left is exactly the keys the sync
// retired; across any gap retirements went unobserved, and the surplus
// keys are found by enumeration — paid for only when there are any.
func (c *Cache[V]) Settle(p *Plan, gone func(V)) {
	drop := func(key ground.AtomID) {
		if e, ok := c.entries[key]; ok {
			if gone != nil {
				gone(e.value)
			}
			delete(c.entries, key)
		}
	}
	if p.chained(c.gen) {
		for _, key := range p.retired {
			drop(key)
		}
	} else if len(c.entries) > len(p.Comps) {
		current := make(map[ground.AtomID]struct{}, len(p.Comps))
		for i := range p.Comps {
			current[p.Comps[i].Key] = struct{}{}
		}
		for key := range c.entries {
			if _, ok := current[key]; !ok {
				drop(key)
			}
		}
	}
	c.gen = p.gen
}

// Run is the shared scheduling loop of a component-decomposed pass
// over scope (see Plan.Scope). For every component in it Run first
// offers the cached payload (if any) to reuse; a false return — stale
// by the consumer's own criteria, e.g. an unconverged ADMM iterate —
// demotes the component to dirty. Dirty components are then processed
// concurrently on the shared worker pool when there are at least two per
// worker, on the caller otherwise (each kernel call must itself
// be sequential; the pool parallelises across components). reuse and
// solve take the component's index into p.Comps; results and cached
// (which marks the reused payloads) are indexed by position in scope,
// so they land in deterministic component order. Workers must only read
// shared state — all index maintenance happens at sequential points.
func Run[V, R any](p *Plan, scope []int32, parallelism int, cache *Cache[V],
	reuse func(i int, v V) (R, bool),
	solve func(i int) (R, error),
) (results []R, cached []bool, err error) {
	results = make([]R, len(scope))
	cached = make([]bool, len(scope))
	var dirty []int
	for k, ci := range scope {
		if v, ok := cache.Lookup(&p.Comps[ci]); ok {
			if r, fresh := reuse(int(ci), v); fresh {
				results[k] = r
				cached[k] = true
				continue
			}
		}
		dirty = append(dirty, k)
	}
	// Fan out only when every worker gets at least two components. A
	// single-fact update dirties one to three small components; waking a
	// second worker for them costs more than it saves and makes the
	// update wait on another thread being scheduled.
	workers := par.Workers(parallelism)
	if len(dirty) < 2*workers {
		workers = 1
	}
	errs := make([]error, len(dirty))
	par.Do(len(dirty), workers, func(j int) {
		k := dirty[j]
		results[k], errs[j] = solve(int(scope[k]))
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, cached, nil
}
