package engine

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/ground"
)

// Maintained solve plans.
//
// NewPlan rebuilds the whole decomposition on every call: a full scan
// and canonical sort of the live atoms plus a full partition listing.
// On a session engine those are the last whole-graph passes left on the
// single-fact update path. The Planner below builds one Plan on its
// first sync and from then on only patches its partition, from the one
// change feed the lower layers keep:
//
//   - the clause set's change log names every atom the incremental
//     grounder made live or changed and every root the union-find
//     moved;
//   - the component-key mirror says which listed component each logged
//     atom sits in: that component is touched, and a logged atom the
//     partition does not list yet enters it;
//   - only the touched components are re-grouped (their retracted atoms
//     leave the partition), their atoms sorted with
//     ground.AtomTable.CompareCanonical, and written over the slots of
//     the components they replace; the rest of the partition (and the
//     Atoms slices the caches hold) stays where it is.
//
// Consumers read only the partition, as a set: no global atom order
// and no list order is kept, so a sync costs what the delta changed,
// not what the partition holds. The maintained Plan lists the same
// components — key, generation, atoms in canonical order, local
// numbering — as a fresh NewPlan over the same state returns, in
// whatever order its syncs left them; the differential suites assert
// exactly that.

// PlanStats reports how one solve obtained its decomposition plan.
type PlanStats struct {
	// Mode is "maintained" (delta-patched persistent plan) or
	// "rebuilt" (the planner's first sync, built from scratch; every
	// later sync patches, however large its delta).
	Mode string
	// Atoms and Components describe the plan: live atoms and conflict
	// components in the partition.
	Atoms      int
	Components int
	// InsertedAtoms/RemovedAtoms count the atoms that entered and left
	// the live set in this sync. An atom that stays live — a confidence
	// change, a switch between evidence and derived, a new backing fact —
	// counts in neither. Both zero on a rebuild.
	InsertedAtoms int
	RemovedAtoms  int
	// PatchedComponents counts components re-listed from the union-find
	// change log; DroppedComponents counts component keys retired from
	// the partition (and from the consumers' caches).
	PatchedComponents int
	DroppedComponents int
	// Sync is the time spent building or maintaining the plan.
	Sync time.Duration
}

// Planner maintains a Plan across a session engine's incremental
// solves. Construct with NewPlanner; call Sync once per solve at a
// sequential point (no readers in flight). Sync mutates the previously
// returned Plan in place — a Plan is only valid until the next Sync.
type Planner struct {
	atoms *ground.AtomTable
	cs    *ground.ClauseSet
	plan  *Plan

	// compKeyOf maps each atom the partition lists to its component
	// key, and every other atom to -1: the live set as of the last sync.
	compKeyOf []ground.AtomID
	// slotOf maps a component key to its index in Comps. Entries of
	// keys no longer listed go stale; Slot validates them.
	slotOf []int32
	// live counts the atoms the partition lists.
	live int

	// Per-sync scratch, reused so the steady-state single-fact path
	// stays allocation-free.
	logged      []ground.AtomID
	remIdx      []int
	cands       []ground.AtomID
	groupIdx    map[ground.AtomID]int32
	groups      []ground.Component
	groupBufs   [][]ground.AtomID
	affectedBuf []ground.AtomID
	retired     []ground.AtomID
	dirty       []int32
	dead        []ground.AtomID

	// gen counts Sync calls; every returned plan carries it so
	// consumers can prove their state is exactly one sync behind (see
	// Plan.scope).
	gen uint64

	stats PlanStats
}

// NewPlanner returns a planner with no plan; the first Sync builds one
// from scratch.
func NewPlanner() *Planner { return &Planner{} }

// Plan returns the planner's current plan (nil before the first Sync).
// The differential suites use it to compare the maintained plan against
// a fresh NewPlan over the same state.
func (pl *Planner) Plan() *Plan { return pl.plan }

// Sync returns the plan for the current engine state. The first call
// builds it from scratch and binds the planner to atoms and cs; every
// later call must pass the same pair and patches the plan from the
// clause set's change log accumulated since the last call. The returned
// stats describe what the sync did.
func (pl *Planner) Sync(atoms *ground.AtomTable, cs *ground.ClauseSet) (*Plan, PlanStats) {
	start := time.Now()
	pl.stats = PlanStats{}
	pl.gen++
	switch {
	case pl.plan == nil:
		pl.atoms, pl.cs = atoms, cs
		pl.rebuild()
		pl.stats.Mode = "rebuilt"
	case pl.atoms != atoms || pl.cs != cs:
		panic("engine: a Planner syncs the engine it was first synced with")
	default:
		pl.sync()
		pl.stats.Mode = "maintained"
	}
	pl.plan.gen = pl.gen
	pl.stats.Atoms = pl.live
	pl.stats.Components = len(pl.plan.Comps)
	pl.stats.Sync = time.Since(start)
	return pl.plan, pl.stats
}

// rebuild constructs the first plan from scratch, starts the change
// log from that snapshot and fills the mirrors.
func (pl *Planner) rebuild() {
	atoms, cs := pl.atoms, pl.cs
	p := NewPlan(atoms, cs)
	cs.EnableChangeLog()

	n := atoms.Len()
	pl.compKeyOf = grow(pl.compKeyOf, n, ground.AtomID(-1))
	pl.slotOf = grow(pl.slotOf, n, -1)
	for ci := range p.Comps {
		c := &p.Comps[ci]
		pl.slotOf[c.Key] = int32(ci)
		pl.live += len(c.Atoms)
		for _, a := range c.Atoms {
			pl.compKeyOf[a] = c.Key
		}
	}

	pl.plan = p
}

// Slot returns the index in Plan().Comps of the component listed under
// key, or -1 when no listed component has that key.
func (pl *Planner) Slot(key ground.AtomID) int {
	s := int(pl.slotOf[key])
	if s >= 0 && s < len(pl.plan.Comps) && pl.plan.Comps[s].Key == key {
		return s
	}
	return -1
}

// sync patches the plan from the change log accumulated since the
// last sync. Afterwards Comps holds the listings a fresh NewPlan over
// the same state would, in any order, with the same local numbering.
func (pl *Planner) sync() {
	atoms, cs, p := pl.atoms, pl.cs, pl.plan
	p.retired = nil
	pl.dirty, pl.dead = pl.dirty[:0], pl.dead[:0]
	p.dirty, p.dead = pl.dirty, pl.dead

	pl.logged = pl.logged[:0]
	cs.DrainChangedRoots(func(a ground.AtomID) { pl.logged = append(pl.logged, a) })
	if len(pl.logged) == 0 {
		return // empty delta: the plan stands
	}

	n := atoms.Len()
	p.localOfAtom = grow(p.localOfAtom, n, 0)
	pl.compKeyOf = grow(pl.compKeyOf, n, ground.AtomID(-1))
	pl.slotOf = grow(pl.slotOf, n, -1)

	// A logged atom the partition lists touches its component; a logged
	// live atom it does not list enters the partition as a candidate
	// for re-grouping.
	affected := pl.affectedBuf[:0] // old component keys touched
	pl.cands = pl.cands[:0]
	for _, a := range pl.logged {
		if key := pl.compKeyOf[a]; key >= 0 {
			affected = append(affected, key)
		} else if !atoms.IsRetracted(a) {
			pl.cands = append(pl.cands, a)
		}
	}
	pl.stats.InsertedAtoms = len(pl.cands)

	// The live atoms of every touched component join the candidates;
	// its retracted ones are dead — out of the partition, their truth
	// pinned false.
	slices.Sort(affected)
	affected = slices.Compact(affected)
	pl.remIdx = pl.remIdx[:0]
	for _, key := range affected {
		idx := pl.Slot(key)
		if idx < 0 {
			panic(fmt.Sprintf("engine: planner lost component %d", key))
		}
		pl.remIdx = append(pl.remIdx, idx)
		for _, a := range p.Comps[idx].Atoms {
			if atoms.IsRetracted(a) {
				pl.compKeyOf[a] = -1
				pl.dead = append(pl.dead, a)
			} else {
				pl.cands = append(pl.cands, a)
			}
		}
	}
	pl.stats.RemovedAtoms = len(pl.dead)
	pl.live += pl.stats.InsertedAtoms - pl.stats.RemovedAtoms

	pl.spliceComps(affected)
	pl.affectedBuf = affected
	p.dirty, p.dead = pl.dirty, pl.dead
}

// spliceComps resolves pending splits over the candidate atoms,
// re-lists the changed components and patches them into the partition,
// leaving every untouched component's listing (and Atoms slice) alone.
// affected holds the old keys of every component the delta touched,
// sorted; their slots are in pl.remIdx.
func (pl *Planner) spliceComps(affected []ground.AtomID) {
	atoms, cs, p := pl.atoms, pl.cs, pl.plan

	cs.ResolveSplits(pl.cands)
	// The resolve's own generation bumps are part of this sync, not the
	// next one.
	cs.DrainChangedRoots(func(ground.AtomID) {})

	// Group the candidates by their (now final) roots, in canonical
	// order, so each group lists its atoms exactly as Components would.
	slices.SortFunc(pl.cands, atoms.CompareCanonical)
	if pl.groupIdx == nil {
		pl.groupIdx = make(map[ground.AtomID]int32)
	} else {
		for k := range pl.groupIdx {
			delete(pl.groupIdx, k)
		}
	}
	groups := pl.groups[:0]
	for _, a := range pl.cands {
		root := cs.Find(a)
		gi, ok := pl.groupIdx[root]
		if !ok {
			gi = int32(len(groups))
			pl.groupIdx[root] = gi
			if len(pl.groupBufs) <= len(groups) {
				pl.groupBufs = append(pl.groupBufs, nil)
			}
			pl.groupBufs[gi] = pl.groupBufs[gi][:0]
			groups = append(groups, ground.Component{Key: root, Gen: cs.RootGen(root)})
		}
		pl.groupBufs[gi] = append(pl.groupBufs[gi], a)
	}
	pl.groups = groups

	// Adopt the old Atoms slice when a group's membership is unchanged
	// (a pure generation bump — the common conf-toggle case); fresh
	// membership gets a fresh immutable slice.
	patched := 0
	for gi := range groups {
		g := &groups[gi]
		buf := pl.groupBufs[gi]
		if _, ok := slices.BinarySearch(affected, g.Key); ok {
			if old := &p.Comps[pl.Slot(g.Key)]; slices.Equal(old.Atoms, buf) {
				g.Atoms = old.Atoms
				if old.Gen != g.Gen {
					patched++
				}
				continue
			}
		}
		g.Atoms = append([]ground.AtomID(nil), buf...)
		patched++
	}
	pl.stats.PatchedComponents = patched
	// The size multiset trades the replaced components for the groups.
	for _, idx := range pl.remIdx {
		p.sizes.remove(len(p.Comps[idx].Atoms))
	}
	for gi := range groups {
		p.sizes.add(len(groups[gi].Atoms))
	}

	// Retire old keys no group re-listed.
	retired := pl.retired[:0]
	for _, key := range affected {
		if _, ok := pl.groupIdx[key]; !ok {
			retired = append(retired, key)
		}
	}
	pl.retired = retired
	p.retired = retired
	pl.stats.DroppedComponents = len(retired)
	for gi := range groups {
		g := &groups[gi]
		for li, a := range g.Atoms {
			pl.compKeyOf[a] = g.Key
			p.localOfAtom[a] = int32(li)
		}
	}

	// Patch the partition, which is a set: each group takes a replaced
	// slot, lowest first, and extra groups are appended; the leftover
	// replaced slots — the highest — are filled from the tail. Only the
	// slots written move in slotOf, and dirty stays ascending.
	slices.Sort(pl.remIdx)
	for gi := range groups {
		s := len(p.Comps)
		if gi < len(pl.remIdx) {
			s = pl.remIdx[gi]
			p.Comps[s] = groups[gi]
		} else {
			p.Comps = append(p.Comps, groups[gi])
		}
		pl.slotOf[groups[gi].Key] = int32(s)
		pl.dirty = append(pl.dirty, int32(s))
	}
	for ri := len(pl.remIdx) - 1; ri >= len(groups); ri-- {
		s, last := pl.remIdx[ri], len(p.Comps)-1
		if s != last {
			p.Comps[s] = p.Comps[last]
			pl.slotOf[p.Comps[s].Key] = int32(s)
		}
		p.Comps[last] = ground.Component{}
		p.Comps = p.Comps[:last]
	}
}

// grow extends s to length n, filling new entries with fill.
func grow[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
