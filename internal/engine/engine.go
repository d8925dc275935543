// Package engine is the shared orchestration layer for
// component-decomposed incremental work. The ground network of a solve
// splits into independent conflict components (see
// internal/ground/components.go); everything the system computes over
// it — the MLN MaxSAT state, the PSL ADMM state, and the repair
// read-out — decomposes along that partition. This package owns the one
// component pass all three consumers run, so each contributes only its
// per-component kernel and the aggregate it keeps over its records:
//
//   - Plan: the decomposition of one solve — the component partition,
//     a set of components in no particular list order, each listing its
//     atoms in canonical order (ground.AtomTable.CompareCanonical), the
//     multiset of component sizes every kernel's statistics read
//     (FillStats), and per-component clause gathering in dense local
//     numbering, driven by the clause set's atom index;
//   - Cache: a generic per-component record cache keyed by (component
//     key, generation, membership), the invariant under which a
//     component's subproblem is provably unchanged, plus the plan
//     generation it was last settled against;
//   - Run: the one pass. It scopes itself — the last sync's change set
//     when the consumer's state is chained on a cache exactly one
//     delta-patching sync behind, every component otherwise; there is
//     no separate full pass — splits the scope into reusable and dirty
//     components, processes the dirty ones concurrently on the shared
//     worker pool, installs their records in scope order, retires
//     the records of components that left the partition, and settles
//     the cache's generation. Every record it replaces, installs or
//     retires goes through the consumer's swap exactly once, so an
//     aggregate kept by swap alone always equals a fold over the cache;
//   - Merge: a per-atom vector after a pass — the previous one carried
//     forward under a change set, zero otherwise — with the scoped
//     components' values written over it;
//   - ExactSum: an order-independent float64 accumulator, so a sum kept
//     across passes equals one folded from scratch bit for bit.
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
	// Comps is the conflict-component partition of the live atoms, each
	// component listing its atoms in canonical order. It is a set: a
	// NewPlan lists the components by their first atoms, a Planner sync
	// writes re-listed components over the slots of those they replace,
	// and no consumer's answer depends on the list order.
	Comps []ground.Component

	cs *ground.ClauseSet
	// localOfAtom maps each live atom id to its index within its
	// component. Being atom-indexed it does not shift when components
	// are re-listed, so the planner patches only touched components'
	// entries.
	localOfAtom []int32
	// sizes is the multiset of the components' sizes, which the planner
	// moves by the components it re-lists.
	sizes sizeAgg
	// gen is the planner's sync generation: 1 for its one from-scratch
	// build, bumped by every later Planner.Sync — each a delta-patching
	// sync, empty-delta ones included — and 0 for a NewPlan. dirty,
	// retired and dead are that sync's change set (see scope,
	// Cache.settle, Merge).
	gen     uint64
	dirty   []int32
	retired []ground.AtomID
	dead    []ground.AtomID
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
		p.sizes.add(len(p.Comps[ci].Atoms))
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
// intervening syncs whose change sets were never observed, and no state
// (have 0) is chained on nothing, the first build included.
func (p *Plan) chained(have uint64) bool { return have > 0 && have+1 == p.gen }

// scope returns the components (ascending indexes into Comps) a
// consumer holding state settled against generation have must visit,
// and whether that is a change set (delta) rather than the whole
// partition. Chained on the previous generation it is the components
// the last sync re-listed or generation-bumped: together with the
// retired keys and the retracted atoms a superset of every change, so a
// component outside it has the same key, generation, membership, atom
// truth domain and clause subproblem it had under the previous plan.
// Otherwise — no state (have 0), a gap, the first build, a NewPlan — it
// is every component: a full pass is a pass in which every component is
// dirty.
func (p *Plan) scope(have uint64) (scope []int32, delta bool) {
	if p.chained(have) {
		return p.dirty, true
	}
	scope = make([]int32, len(p.Comps))
	for i := range scope {
		scope[i] = int32(i)
	}
	return scope, false
}

// Clauses returns component i's live clauses in canonical order,
// remapped into the component's dense local variable space, plus their
// stable clause-set slots (for keying per-clause warm state). The gather
// walks only the component's own clauses, so incremental work stays
// proportional to what the delta dirtied. Safe to call concurrently for
// different components.
func (p *Plan) Clauses(i int) ([]ground.Clause, []int32) {
	return p.cs.ComponentClauses(p.Comps[i].Atoms, p.Local)
}

// FillStats completes stats for a pass whose re-solved components the
// caller has already tallied (Solved, Engines, Fallbacks): the
// partition's shape comes from the plan's size multiset, and every
// component that was not re-solved is a cache reuse ("cached").
func (p *Plan) FillStats(stats *ground.ComponentStats) { p.sizes.fill(stats) }

// sizeAgg is a multiset of component sizes, exact under any sequence of
// additions and removals, so the statistics it fills equal a fold over
// the partition. The zero value is empty and ready to use.
type sizeAgg struct {
	sizeCount map[int]int
	largest   int
	count     int
}

// add accounts one component of size atoms.
func (g *sizeAgg) add(size int) {
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

// remove takes back one component of size atoms added earlier.
func (g *sizeAgg) remove(size int) {
	if g.sizeCount[size]--; g.sizeCount[size] == 0 {
		delete(g.sizeCount, size)
		for g.largest > 0 && g.sizeCount[g.largest] == 0 {
			g.largest--
		}
	}
	g.count--
}

func (g *sizeAgg) fill(stats *ground.ComponentStats) {
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

// Cache carries one record per component across a consumer's passes,
// keyed by (component key, generation, membership) — the triple under
// which a component's subproblem is provably unchanged — plus the plan
// generation of the last pass, the cursor the next pass chains on. Only
// Run changes it. The zero value is not usable; construct with
// NewCache. Not safe for concurrent use.
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

// Lookup returns the cached record when the component's subproblem is
// provably unchanged: same key, same generation, same membership.
func (c *Cache[V]) Lookup(comp *ground.Component) (V, bool) {
	if e := c.current(comp); e != nil {
		return e.value, true
	}
	var zero V
	return zero, false
}

// current returns the component's entry when it is current (see
// Lookup), nil otherwise.
func (c *Cache[V]) current(comp *ground.Component) *cacheEntry[V] {
	e, ok := c.entries[comp.Key]
	if !ok || e.gen != comp.Gen || len(e.atoms) != len(comp.Atoms) {
		return nil
	}
	// The planner reuses a component's Atoms slice across syncs when its
	// membership is unchanged, so slice identity proves membership
	// without walking it.
	if len(e.atoms) > 0 && &e.atoms[0] == &comp.Atoms[0] {
		return e
	}
	for i, a := range comp.Atoms {
		if e.atoms[i] != a {
			return nil
		}
	}
	return e
}

// put installs a recomputed record under the component's current (key,
// generation, membership), first handing swap the record it replaces
// (nil when the key is new) and the new one.
func (c *Cache[V]) put(comp *ground.Component, v *V, swap func(old, new *V)) {
	if e, ok := c.entries[comp.Key]; ok {
		swap(&e.value, v)
		e.gen, e.atoms, e.value = comp.Gen, comp.Atoms, *v
		return
	}
	swap(nil, v)
	c.entries[comp.Key] = &cacheEntry[V]{gen: comp.Gen, atoms: comp.Atoms, value: *v}
}

// settle ends a pass over p, after which every component of p is keyed:
// it retires the records of components that left the partition, handing
// each to swap, and records p's generation. Chained on the previous
// generation, what left is exactly the keys the sync retired; across
// any gap retirements went unobserved, and the surplus keys are found
// by enumeration — paid for only when there are any.
func (c *Cache[V]) settle(p *Plan, swap func(old, new *V)) {
	retire := func(key ground.AtomID) {
		if e, ok := c.entries[key]; ok {
			swap(&e.value, nil)
			delete(c.entries, key)
		}
	}
	if p.chained(c.gen) {
		for _, key := range p.retired {
			retire(key)
		}
	} else if len(c.entries) > len(p.Comps) {
		current := make(map[ground.AtomID]struct{}, len(p.Comps))
		for i := range p.Comps {
			current[p.Comps[i].Key] = struct{}{}
		}
		for key := range c.entries {
			if _, ok := current[key]; !ok {
				retire(key)
			}
		}
	}
	c.gen = p.gen
}

// Pass is what one Run did: the components it visited (Scope, ascending
// indexes into Plan.Comps), the record each of them holds now (Records,
// by position in Scope), and whether Scope was the last sync's change
// set rather than every component (Delta).
type Pass[V any] struct {
	Scope   []int32
	Records []V
	Delta   bool
	plan    *Plan
}

// Run is the one component pass of a consumer over p, keeping its cache
// in step. chained reports whether the consumer's own state — the
// previous solve's vectors, its warm iterates — is the one its cache was
// last settled against; only then can the pass be scoped to the last
// sync's change set (see scope), and every other pass visits every
// component.
//
// For every scoped component whose record is current Run first asks
// reuse; a false return — stale by the consumer's own criteria, e.g. an
// unconverged ADMM iterate — demotes the component to dirty. Dirty
// components are then solved concurrently on the shared worker pool when
// there are at least two per worker, on the caller otherwise (each solve
// must itself be sequential and only read shared state; the pool
// parallelises across components). reuse and solve take the component's
// index into p.Comps.
//
// Then, sequentially: each solved record is installed in scope order
// (ascending slots), and the records of components that left the
// partition are retired. swap sees each of these changes exactly once
// — (old, new) for a replaced record, (nil, new) for a new key, (old,
// nil) for a retired one — before the cache holds new, so it may
// rewrite new in place; old is only valid during the call. On a solve error nothing is
// installed and the cache is left as it was.
func Run[V any](p *Plan, chained bool, parallelism int, cache *Cache[V],
	reuse func(i int, v *V) bool,
	solve func(i int) (V, error),
	swap func(old, new *V),
) (*Pass[V], error) {
	var have uint64
	if chained {
		have = cache.gen
	}
	scope, delta := p.scope(have)
	records := make([]V, len(scope))
	var dirty []int
	for k, ci := range scope {
		if e := cache.current(&p.Comps[ci]); e != nil && reuse(int(ci), &e.value) {
			records[k] = e.value
			continue
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
		records[k], errs[j] = solve(int(scope[k]))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, k := range dirty {
		cache.put(&p.Comps[scope[k]], &records[k], swap)
	}
	cache.settle(p, swap)
	return &Pass[V]{Scope: scope, Records: records, Delta: delta, plan: p}, nil
}

// Merge returns the n-entry per-atom vector a pass leaves: under a
// change set prev — the vector of the state the pass was chained on,
// which every component outside the scope keeps — with the atoms the
// sync retracted reset to the zero value; otherwise all zero values,
// every component being in scope. Each scoped component's values, read
// from its record by local and aligned with its atoms, are then written
// over its atoms. prev is not written.
func Merge[T, V any](pass *Pass[V], prev []T, n int, local func(*V) []T) []T {
	out := make([]T, n)
	if pass.Delta {
		copy(out, prev)
		var zero T
		for _, a := range pass.plan.dead {
			if int(a) < n {
				out[a] = zero
			}
		}
	}
	for k, ci := range pass.Scope {
		values := local(&pass.Records[k])
		for li, a := range pass.plan.Comps[ci].Atoms {
			out[a] = values[li]
		}
	}
	return out
}
