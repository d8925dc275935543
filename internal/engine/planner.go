package engine

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/ground"
	"repro/internal/store"
)

// Maintained solve plans.
//
// NewPlan rebuilds the whole decomposition on every call: a full scan
// plus two key-comparison sorts for the canonical order, an O(atoms)
// var-map allocation and a full partition listing. On a session engine
// those are the last whole-graph passes left on the single-fact update
// path. The Planner below keeps one Plan alive across solves and
// patches it from the deltas the lower layers already track:
//
//   - the AtomTable's mutation journal names every atom whose canonical
//     position could have moved; the order is updated by a sorted
//     window splice (binary-searched insertion points, block copies,
//     double-buffered scratch) instead of re-sorting;
//   - VarOf is patched in place from the first spliced position on —
//     positions before it are untouched;
//   - the clause set's changed-root log names every component the
//     union-find moved; only those are re-grouped and re-listed, the
//     rest of the partition (and the Atoms slices the caches hold) is
//     reused as-is.
//
// The maintained Plan is byte-identical — same Order, VarOf and Comps —
// to what a fresh NewPlan over the same state returns; the differential
// suites assert exactly that.

// PlanStats reports how one solve obtained its decomposition plan.
type PlanStats struct {
	// Mode is "maintained" (delta-patched persistent plan) or
	// "rebuilt" (from-scratch NewPlan, or the planner's first build).
	Mode string
	// Atoms and Components describe the plan: live atoms in canonical
	// order and conflict components in the partition.
	Atoms      int
	Components int
	// InsertedAtoms/RemovedAtoms are the canonical-order splice sizes;
	// ShiftedVars counts the canonical positions rewritten behind the
	// first splice point. All zero on a conf-only delta.
	InsertedAtoms int
	RemovedAtoms  int
	ShiftedVars   int
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

	// nEv is the evidence-segment length of the canonical order.
	nEv int
	// fidOf mirrors each atom's backing fact id as of the last sync —
	// the evidence-segment sort key the spliced order is still sorted
	// by while this sync's insertion points are located.
	fidOf []store.FactID
	// compKeyOf maps each live atom to its component key as of the last
	// sync (retired entries go stale and are never read).
	compKeyOf []ground.AtomID
	// firstOf maps a component key to the component's first atom in
	// canonical order — the binary-search handle from a changed root to
	// its slot in the comps list.
	firstOf map[ground.AtomID]ground.AtomID

	// Double buffers for the order and comps lists, swapped on splice.
	spareOrder []ground.AtomID
	spareComps []ground.Component

	// Per-sync scratch, reused so the steady-state single-fact path
	// stays allocation-free.
	journal     []ground.AtomID
	roots       []ground.AtomID
	events      []orderEvent
	removed     []ground.AtomID
	insEv       []ground.AtomID
	insDer      []ground.AtomID
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
	// Plan.Scope).
	gen uint64

	stats PlanStats
}

// orderEvent is one edit of the canonical order: an insertion of atom
// before old position pos, or (atom < 0) a removal of old position pos.
type orderEvent struct {
	pos  int32
	atom ground.AtomID
}

// NewPlanner returns a planner with no plan; the first Sync builds one
// from scratch.
func NewPlanner() *Planner { return &Planner{} }

// Plan returns the planner's current plan (nil before the first Sync).
// The differential suites use it to compare the maintained plan against
// a fresh NewPlan over the same state.
func (pl *Planner) Plan() *Plan { return pl.plan }

// Sync returns the plan for the current engine state, patched from the
// atom journal and component change log accumulated since the last
// call (or built from scratch on the first). The returned stats
// describe what the sync did.
func (pl *Planner) Sync(atoms *ground.AtomTable, cs *ground.ClauseSet) (*Plan, PlanStats) {
	start := time.Now()
	pl.stats = PlanStats{}
	pl.gen++
	if pl.plan == nil || pl.atoms != atoms || pl.cs != cs {
		pl.atoms, pl.cs = atoms, cs
		pl.rebuild()
	} else {
		pl.sync()
	}
	pl.plan.gen = pl.gen
	if pl.plan.maintained {
		pl.stats.Mode = "maintained"
	} else {
		pl.stats.Mode = "rebuilt"
	}
	pl.stats.Atoms = len(pl.plan.Order)
	pl.stats.Components = len(pl.plan.Comps)
	pl.stats.Sync = time.Since(start)
	return pl.plan, pl.stats
}

// rebuild constructs the plan from scratch and resets every mirror and
// delta source to that snapshot.
func (pl *Planner) rebuild() {
	atoms, cs := pl.atoms, pl.cs
	atoms.EnableJournal()
	cs.EnableChangeLog()
	p := NewPlan(atoms, cs)

	pl.nEv = 0
	for pl.nEv < len(p.Order) && atoms.IsEvidence(p.Order[pl.nEv]) {
		pl.nEv++
	}
	n := atoms.Len()
	pl.fidOf = grow(pl.fidOf, n, store.FactID(-1))
	for i := range pl.fidOf {
		pl.fidOf[i] = atoms.BackingFact(ground.AtomID(i))
	}
	pl.compKeyOf = grow(pl.compKeyOf, n, ground.AtomID(-1))
	pl.firstOf = make(map[ground.AtomID]ground.AtomID, len(p.Comps))
	for ci := range p.Comps {
		c := &p.Comps[ci]
		pl.firstOf[c.Key] = c.Atoms[0]
		for _, a := range c.Atoms {
			pl.compKeyOf[a] = c.Key
		}
	}

	// The snapshot consumed everything the journal and change log held.
	atoms.DrainJournal(func(ground.AtomID) {})
	cs.DrainChangedRoots(func(ground.AtomID) {})
	pl.plan = p
}

// sync patches the plan from the deltas accumulated since the last
// sync. The resulting Order, VarOf and Comps are byte-identical to a
// fresh NewPlan over the same state.
func (pl *Planner) sync() {
	atoms, cs, p := pl.atoms, pl.cs, pl.plan
	p.maintained = true
	p.retired = nil
	pl.dirty, pl.dead = pl.dirty[:0], pl.dead[:0]
	p.dirty, p.dead = pl.dirty, pl.dead

	pl.journal = pl.journal[:0]
	atoms.DrainJournal(func(a ground.AtomID) { pl.journal = append(pl.journal, a) })
	pl.roots = pl.roots[:0]
	cs.DrainChangedRoots(func(r ground.AtomID) { pl.roots = append(pl.roots, r) })
	if len(pl.journal) == 0 && len(pl.roots) == 0 {
		return // empty delta: the plan stands
	}
	// A delta comparable to the table is no longer a delta: rebuild.
	if len(pl.journal)*4 > atoms.Len() {
		pl.rebuild()
		return
	}

	n := atoms.Len()
	p.VarOf = grow(p.VarOf, n, -1)
	p.localOfAtom = grow(p.localOfAtom, n, 0)
	pl.compKeyOf = grow(pl.compKeyOf, n, ground.AtomID(-1))
	pl.fidOf = grow(pl.fidOf, n, store.FactID(-1))
	varOf := p.VarOf

	// Classify the journal into canonical-order edits. Positions and
	// the evidence segment refer to the previous sync's state; the fid
	// mirror is the previous sort key and must not be refreshed until
	// the insertion points have been located against it.
	pl.removed, pl.insEv, pl.insDer = pl.removed[:0], pl.insEv[:0], pl.insDer[:0]
	affected := pl.affectedBuf[:0] // old component keys touched
	for _, a := range pl.journal {
		wasPos := varOf[a]
		wasLive := wasPos >= 0
		nowLive := !atoms.IsRetracted(a)
		if wasLive {
			affected = append(affected, pl.compKeyOf[a])
		}
		switch {
		case !wasLive && !nowLive:
			// Born and retracted within one window: no order presence.
		case wasLive && !nowLive:
			pl.removed = append(pl.removed, a)
		case !wasLive && nowLive:
			if atoms.IsEvidence(a) {
				pl.insEv = append(pl.insEv, a)
			} else {
				pl.insDer = append(pl.insDer, a)
			}
		default:
			wasEv := int(wasPos) < pl.nEv
			nowEv := atoms.IsEvidence(a)
			if wasEv != nowEv || (nowEv && pl.fidOf[a] != atoms.BackingFact(a)) {
				pl.removed = append(pl.removed, a)
				if nowEv {
					pl.insEv = append(pl.insEv, a)
				} else {
					pl.insDer = append(pl.insDer, a)
				}
			}
		}
	}

	// Map changed roots and journal atoms to the old components they
	// belonged to; their atoms plus the journal are the only candidates
	// whose grouping can have changed.
	for _, r := range pl.roots {
		if _, ok := pl.firstOf[r]; ok {
			affected = append(affected, r)
		}
	}
	slices.Sort(affected)
	affected = slices.Compact(affected)
	pl.remIdx = pl.remIdx[:0]
	for _, key := range affected {
		first := pl.firstOf[key]
		pos := varOf[first]
		idx := sort.Search(len(p.Comps), func(i int) bool {
			return varOf[p.Comps[i].Atoms[0]] >= pos
		})
		if idx >= len(p.Comps) || p.Comps[idx].Key != key {
			panic(fmt.Sprintf("engine: planner lost component %d", key))
		}
		pl.remIdx = append(pl.remIdx, idx)
	}

	pl.cands = pl.cands[:0]
	for _, idx := range pl.remIdx {
		for _, a := range p.Comps[idx].Atoms {
			if !atoms.IsRetracted(a) {
				pl.cands = append(pl.cands, a)
			}
		}
	}
	for _, a := range pl.journal {
		if !atoms.IsRetracted(a) {
			pl.cands = append(pl.cands, a)
		}
	}
	slices.Sort(pl.cands)
	pl.cands = slices.Compact(pl.cands)

	pl.spliceOrder()

	// Refresh the mirrors the classification read.
	for _, a := range pl.journal {
		pl.fidOf[a] = atoms.BackingFact(a)
	}

	pl.spliceComps(affected)
	pl.affectedBuf = affected
	p.dirty, p.dead = pl.dirty, pl.dead
}

// spliceOrder applies the classified edits to the canonical order and
// patches VarOf from the first changed position on.
func (pl *Planner) spliceOrder() {
	atoms, p := pl.atoms, pl.plan
	if len(pl.removed) == 0 && len(pl.insEv) == 0 && len(pl.insDer) == 0 {
		return
	}
	varOf := p.VarOf
	old := p.Order

	// Insertions are located by binary search against the still-sorted
	// old segments: evidence by the mirrored previous fact ids, derived
	// by the immutable statement keys.
	slices.SortFunc(pl.insEv, func(a, b ground.AtomID) int {
		fa, fb := atoms.BackingFact(a), atoms.BackingFact(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	})
	slices.SortFunc(pl.insDer, atoms.CompareKeys)
	events := pl.events[:0]
	for _, a := range pl.removed {
		events = append(events, orderEvent{pos: varOf[a], atom: -1 - a})
	}
	for _, a := range pl.insEv {
		fid := atoms.BackingFact(a)
		pos := sort.Search(pl.nEv, func(i int) bool { return pl.fidOf[old[i]] >= fid })
		events = append(events, orderEvent{pos: int32(pos), atom: a})
	}
	for _, a := range pl.insDer {
		pos := pl.nEv + sort.Search(len(old)-pl.nEv, func(i int) bool {
			return atoms.CompareKeys(old[pl.nEv+i], a) >= 0
		})
		events = append(events, orderEvent{pos: int32(pos), atom: a})
	}
	// At equal positions insertions must run before the removal: a fact
	// retracted and re-asserted within one delta window produces both an
	// insertion and a removal whose binary-searched position is the slot
	// of the removed atom itself, and consuming the removal first would
	// advance the copy cursor past the insertion point.
	slices.SortStableFunc(events, func(a, b orderEvent) int {
		if a.pos != b.pos {
			return int(a.pos) - int(b.pos)
		}
		switch {
		case a.atom >= 0 && b.atom < 0:
			return -1
		case a.atom < 0 && b.atom >= 0:
			return 1
		}
		return 0
	})
	pl.events = events

	dst := pl.spareOrder[:0]
	cur := int32(0)
	firstDiff := -1
	evShift := 0
	for _, e := range events {
		dst = append(dst, old[cur:e.pos]...)
		if firstDiff < 0 {
			firstDiff = len(dst)
		}
		if e.atom >= 0 {
			dst = append(dst, e.atom)
			if atoms.IsEvidence(e.atom) {
				evShift++
			}
			cur = e.pos
		} else {
			if int(e.pos) < pl.nEv {
				evShift--
			}
			cur = e.pos + 1
		}
	}
	dst = append(dst, old[cur:]...)
	pl.spareOrder = old
	p.Order = dst
	pl.nEv += evShift

	for _, a := range pl.removed {
		varOf[a] = -1
	}
	for i := firstDiff; i < len(dst); i++ {
		varOf[dst[i]] = int32(i)
	}
	// Removed atoms not reinserted above are gone from the order — the
	// truth domain the delta-merging solver must pin false.
	for _, a := range pl.removed {
		if varOf[a] < 0 {
			pl.dead = append(pl.dead, a)
		}
	}
	pl.stats.InsertedAtoms = len(pl.insEv) + len(pl.insDer)
	pl.stats.RemovedAtoms = len(pl.removed)
	pl.stats.ShiftedVars = len(dst) - firstDiff
}

// spliceComps resolves pending splits over the candidate atoms,
// re-lists the changed components and patches them into the partition,
// leaving every untouched component's listing (and Atoms slice) alone.
// affected holds the old keys of every component the delta touched,
// sorted; their list indexes are in pl.remIdx.
func (pl *Planner) spliceComps(affected []ground.AtomID) {
	cs, p := pl.cs, pl.plan
	varOf := p.VarOf

	cs.ResolveSplits(pl.cands)
	// The resolve's own generation bumps are part of this sync, not the
	// next one.
	cs.DrainChangedRoots(func(ground.AtomID) {})

	// Group the candidates by their (now final) roots, in canonical
	// order, so each group lists its atoms exactly as Components would.
	live := pl.cands[:0]
	for _, a := range pl.cands {
		if varOf[a] >= 0 {
			live = append(live, a)
		}
	}
	pl.cands = live
	slices.SortFunc(pl.cands, func(a, b ground.AtomID) int { return int(varOf[a]) - int(varOf[b]) })
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
		if first, ok := pl.firstOf[g.Key]; ok && varOf[first] >= 0 {
			if old := pl.oldCompByKey(affected, g.Key); old != nil && slices.Equal(old.Atoms, buf) {
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

	// Retire old keys no group re-listed, and refresh the key→first
	// mirror for what did change.
	retired := pl.retired[:0]
	for _, key := range affected {
		if _, ok := pl.groupIdx[key]; !ok {
			retired = append(retired, key)
			delete(pl.firstOf, key)
		}
	}
	pl.retired = retired
	p.retired = retired
	pl.stats.DroppedComponents = len(retired)
	for gi := range groups {
		g := &groups[gi]
		pl.firstOf[g.Key] = g.Atoms[0]
		for li, a := range g.Atoms {
			pl.compKeyOf[a] = g.Key
			p.localOfAtom[a] = int32(li)
		}
	}

	// Patch the partition list. In-place when each re-listed group
	// keeps its slot (same leading atom as the component it replaces);
	// otherwise merge old list and groups into the spare buffer. Both
	// walk the replaced slots in list order, like the groups; up to here
	// remIdx paralleled affected, which is in key order — and a
	// component's key (its smallest atom id) need not follow its list
	// position (its first atom's canonical rank).
	slices.Sort(pl.remIdx)
	if len(groups) == len(pl.remIdx) {
		inPlace := true
		for k := range groups {
			if groups[k].Atoms[0] != p.Comps[pl.remIdx[k]].Atoms[0] {
				inPlace = false
				break
			}
		}
		if inPlace {
			for k := range groups {
				p.Comps[pl.remIdx[k]] = groups[k]
				pl.dirty = append(pl.dirty, int32(pl.remIdx[k]))
			}
			slices.Sort(pl.dirty)
			return
		}
	}
	dst := pl.spareComps[:0]
	gi, ri := 0, 0
	for i := range p.Comps {
		if ri < len(pl.remIdx) && i == pl.remIdx[ri] {
			ri++
			continue
		}
		pos := varOf[p.Comps[i].Atoms[0]]
		for gi < len(groups) && varOf[groups[gi].Atoms[0]] < pos {
			pl.dirty = append(pl.dirty, int32(len(dst)))
			dst = append(dst, groups[gi])
			gi++
		}
		dst = append(dst, p.Comps[i])
	}
	for ; gi < len(groups); gi++ {
		pl.dirty = append(pl.dirty, int32(len(dst)))
		dst = append(dst, groups[gi])
	}
	pl.spareComps = p.Comps
	p.Comps = dst
}

// oldCompByKey returns the old component listed under key, using the
// precomputed affected-key → list-index mapping (affected and pl.remIdx
// are parallel, both sorted by key discovery order).
func (pl *Planner) oldCompByKey(affected []ground.AtomID, key ground.AtomID) *ground.Component {
	for k, a := range affected {
		if a == key {
			return &pl.plan.Comps[pl.remIdx[k]]
		}
	}
	return nil
}

// grow extends s to length n, filling new entries with fill.
func grow[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
