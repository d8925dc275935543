// Package engine is the shared orchestration layer for
// component-decomposed incremental work. The ground network of a solve
// splits into independent conflict components (see
// internal/ground/components.go); everything the system computes over
// it — the MLN MaxSAT state, the PSL ADMM state, and the repair
// read-out — decomposes along that partition. This package owns the
// machinery all three consumers share, so each backend contributes only
// its per-component kernel:
//
//   - Plan: the decomposition of one solve — canonical atom order,
//     component partition, and per-component clause gathering in dense
//     local numbering, driven by the clause set's atom index;
//   - Cache: a generic per-component payload cache keyed by (component
//     key, generation, membership), the invariant under which a
//     component's subproblem is provably unchanged;
//   - Run: the scheduling loop — split components into reusable and
//     dirty, process dirty ones concurrently on the shared worker pool,
//     return results in deterministic component order;
//   - Observe: the stats accounting every consumer reports identically.
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
	// Atoms is the atom table the truth vectors index.
	Atoms *ground.AtomTable
	// Order is the canonical solve order over the live atoms.
	Order []ground.AtomID
	// VarOf maps atom ids to canonical variable indexes (-1 when
	// retracted).
	VarOf []int32
	// Comps is the conflict-component partition of Order, each
	// component listing its atoms in canonical order.
	Comps []ground.Component

	cs         *ground.ClauseSet
	localOfVar []int32

	// localOfAtom is the Planner's atom-indexed local map — unlike
	// localOfVar it does not shift when the canonical order is spliced,
	// so the planner patches only touched components' entries. When set
	// it drives Local.
	localOfAtom []int32
	// maintained marks a plan delta-patched by a Planner sync (as
	// opposed to built from scratch); retired then lists the component
	// keys that sync removed from the partition, so consumers can drop
	// exactly those cache entries instead of rebuilding their caches.
	maintained bool
	retired    []ground.AtomID
	// gen is the planner's sync generation; dirty and dead describe the
	// last sync's change set (see Gen, DirtyComps, RetractedAtoms).
	gen   uint64
	dirty []int32
	dead  []ground.AtomID
}

// NewPlan partitions the clause set's ground network into conflict
// components in canonical order. It switches on cs's atom index
// (idempotent), which Clauses walks to gather each component's own
// clauses on demand.
func NewPlan(atoms *ground.AtomTable, cs *ground.ClauseSet) *Plan {
	cs.EnableAtomIndex()
	order := ground.CanonicalAtoms(atoms)
	varOf := ground.CanonicalVarMap(atoms, order)
	p := &Plan{
		Atoms: atoms,
		Order: order,
		VarOf: varOf,
		Comps: cs.Components(order),
		cs:    cs,
	}
	// Var → local index; components list their atoms in canonical order,
	// so local numbering is the canonical order restricted to the
	// component.
	p.localOfVar = make([]int32, len(order))
	for ci := range p.Comps {
		for li, a := range p.Comps[ci].Atoms {
			p.localOfVar[varOf[a]] = int32(li)
		}
	}
	return p
}

// Local maps a global atom id to its component-local variable.
func (p *Plan) Local(a ground.AtomID) int32 {
	if p.localOfAtom != nil {
		return p.localOfAtom[a]
	}
	return p.localOfVar[p.VarOf[a]]
}

// Maintained reports whether this plan was delta-patched by a Planner
// sync; Retired then lists the component keys that sync removed from
// the partition. Consumers use the pair to maintain their caches
// entry-wise (Put the dirty, Drop the retired) instead of rebuilding
// them with Replace.
func (p *Plan) Maintained() bool { return p.maintained }

// Retired returns the component keys the last Planner sync removed
// from the partition. Only meaningful when Maintained reports true.
func (p *Plan) Retired() []ground.AtomID { return p.retired }

// Gen returns the plan's sync generation: bumped on every Planner.Sync
// — including empty-delta and rebuild syncs — and 0 for a from-scratch
// NewPlan. A consumer holding state derived from generation g may apply
// only this sync's change set (DirtyComps, Retired, RetractedAtoms) iff
// the plan is maintained and Gen() == g+1; any gap means intervening
// syncs whose change sets were never observed, and the state must be
// reseeded from a full pass.
func (p *Plan) Gen() uint64 { return p.gen }

// DirtyComps returns the indexes into Comps (ascending) of every
// component the last Planner sync re-listed or generation-bumped.
// Together with Retired and RetractedAtoms this is a superset of every
// change since the previous generation: a component absent from all
// three has the same key, generation, membership, atom truth domain and
// clause subproblem it had under the previous plan. Only meaningful
// when Maintained reports true.
func (p *Plan) DirtyComps() []int32 { return p.dirty }

// RetractedAtoms returns the atoms the last Planner sync removed from
// the canonical order without reinserting them — their truth is pinned
// false from this generation on. Only meaningful when Maintained
// reports true.
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

// Observe accounts component i into a component-decomposed solve's
// statistics: size histogram always, the solved/reused split and engine
// tallies according to whether the component's payload was reused from
// cache ("cached") or computed by the named engine.
func (p *Plan) Observe(stats *ground.ComponentStats, i int, cached bool, engine string, fallback bool) {
	stats.Observe(len(p.Comps[i].Atoms))
	if cached {
		stats.Reused++
		stats.Engine("cached")
		return
	}
	stats.Solved++
	stats.Engine(engine)
	if fallback {
		stats.Fallbacks++
	}
}

// Cache carries per-component payloads across incremental solves, keyed
// by (component key, generation, membership) — the triple under which a
// component's subproblem is provably unchanged. The zero value is not
// usable; construct with NewCache. A nil *Cache is valid and never
// hits. Not safe for concurrent use.
type Cache[V any] struct {
	entries map[ground.AtomID]*cacheEntry[V]
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
	if c == nil {
		return zero, false
	}
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
// particular order. Consumers that must subtract stale contributions
// (the live outcome retiring components that vanished from the
// partition) use it to enumerate what the cache still holds; entry
// generations are not exposed — Lookup remains the only way to prove an
// entry current. A nil cache is a no-op.
func (c *Cache[V]) Each(fn func(key ground.AtomID, value V)) {
	if c == nil {
		return
	}
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
	if c == nil {
		return zero, false
	}
	e, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	return e.value, true
}

// Put installs a single component's payload under the component's
// current (key, generation, membership), overwriting any previous
// entry in place. Together with Drop it lets an incremental consumer
// maintain the cache entry-wise instead of rebuilding it with Replace
// — on a single-component delta the cache churn is one entry, not the
// whole table. A nil cache is a no-op.
func (c *Cache[V]) Put(comp *ground.Component, value V) {
	if c == nil {
		return
	}
	if e, ok := c.entries[comp.Key]; ok {
		e.gen, e.atoms, e.value = comp.Gen, comp.Atoms, value
		return
	}
	c.entries[comp.Key] = &cacheEntry[V]{gen: comp.Gen, atoms: comp.Atoms, value: value}
}

// Drop removes the entry stored under key, if any.
func (c *Cache[V]) Drop(key ground.AtomID) {
	if c == nil {
		return
	}
	delete(c.entries, key)
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Replace installs this solve's payloads, one per component; entries of
// components that no longer exist are dropped. A nil cache is a no-op.
func (c *Cache[V]) Replace(comps []ground.Component, value func(i int) V) {
	if c == nil {
		return
	}
	fresh := make(map[ground.AtomID]*cacheEntry[V], len(comps))
	for i := range comps {
		fresh[comps[i].Key] = &cacheEntry[V]{
			gen:   comps[i].Gen,
			atoms: comps[i].Atoms,
			value: value(i),
		}
	}
	c.entries = fresh
}

// Run is the shared scheduling loop of a component-decomposed pass. For
// every component it first offers the cached payload (if any) to reuse;
// a false return — stale by the consumer's own criteria, e.g. an
// unconverged ADMM iterate — demotes the component to dirty. Dirty
// components are then processed concurrently on the shared worker pool
// (each kernel call must itself be sequential; the pool parallelises
// across components) and results land in deterministic component order.
// The returned cached slice marks the components whose payload was
// reused. Workers must only read shared state — all index maintenance
// happens at sequential points.
func Run[V, R any](p *Plan, parallelism int, cache *Cache[V],
	reuse func(i int, v V) (R, bool),
	solve func(i int) (R, error),
) (results []R, cached []bool, err error) {
	results = make([]R, len(p.Comps))
	cached = make([]bool, len(p.Comps))
	var dirty []int
	for i := range p.Comps {
		if v, ok := cache.Lookup(&p.Comps[i]); ok {
			if r, fresh := reuse(i, v); fresh {
				results[i] = r
				cached[i] = true
				continue
			}
		}
		dirty = append(dirty, i)
	}
	workers := par.Workers(parallelism)
	errs := make([]error, len(dirty))
	par.Do(len(dirty), workers, func(k int) {
		results[dirty[k]], errs[k] = solve(dirty[k])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, cached, nil
}
