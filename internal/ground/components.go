package ground

import (
	"slices"
	"sort"
)

// Conflict components.
//
// Constraints and rules only connect atoms that actually co-occur in a
// ground clause, so the clause graph of a real utkg splits into many
// small, mutually independent conflict components: the MAP objective
// decomposes exactly across them, and a fact update can only affect the
// component(s) it touches. The component index below maintains that
// partition incrementally on the persistent ClauseSet — union-find merge
// when Add connects atoms, generation bumps plus lazy split detection
// when RetractFacts tombstones clauses — and the per-component solvers
// in internal/mln and internal/psl consume it through Components.
//
// Every component carries a generation: a counter bumped whenever
// anything that can change the component's subproblem happens (a clause
// added, merged or tombstoned inside it, or an atom's evidence state
// touched). A (Key, Gen, Atoms) triple therefore identifies an unchanged
// subproblem, which is what the incremental solve caches component
// solutions under.

// Component is one conflict component of the ground network: a maximal
// set of live atoms connected by live clauses (atoms appearing in no
// clause form singleton components).
type Component struct {
	// Key is the smallest atom id in the component — a stable identity
	// for solution caches (any membership change bumps Gen).
	Key AtomID
	// Gen is the component's generation; equal (Key, Gen, Atoms) means
	// the component's subproblem is unchanged since it was last seen.
	Gen uint64
	// Atoms lists the component's live atoms in canonical solve order
	// (the order Components was given).
	Atoms []AtomID
}

// ComponentStats summarises a component-decomposed solve for
// Resolution.Stats, the CLI and the server API.
type ComponentStats struct {
	// Count is the number of conflict components solved or reused.
	Count int
	// Largest is the atom count of the biggest component.
	Largest int
	// SizeHistogram buckets components by atom count.
	SizeHistogram map[string]int
	// Solved counts components actually solved this call (dirty), Reused
	// counts cache hits whose previous solution was kept.
	Solved int
	Reused int
	// Fallbacks counts components where the branch-and-bound exhausted
	// its node limit and the orchestrator fell back to local search.
	Fallbacks int
	// Engines tallies components per engine ("exact" for a proved
	// optimum, by branch-and-bound or bucket elimination; "local",
	// "exact→local", "admm", "cached").
	Engines map[string]int
}

// SizeBucket names the histogram bucket for a component of n atoms.
func SizeBucket(n int) string {
	switch {
	case n <= 1:
		return "1"
	case n <= 4:
		return "2-4"
	case n <= 16:
		return "5-16"
	case n <= 64:
		return "17-64"
	case n <= 256:
		return "65-256"
	default:
		return "257+"
	}
}

// Engine accounts one component solved (or reused) by the named engine.
func (s *ComponentStats) Engine(name string) {
	if s.Engines == nil {
		s.Engines = make(map[string]int)
	}
	s.Engines[name]++
}

// componentIndex is the incrementally maintained union-find over atoms.
// All mutation happens at sequential points (the grounder's clause
// commits, the incremental engine's sync), matching the emit/commit
// discipline of the grounder; Components resolves pending splits lazily.
// Per-node state is 8 bytes — a 4-byte parent link and a 4-byte
// generation — so the index stays a rounding error next to the clauses
// it partitions even at millions of atoms. Generations are 32-bit: a
// wrap needs 2^32 component mutations in one session, and the solution
// caches keyed by (Key, Gen) also compare full membership, so an
// aliased generation can at worst reuse a cache entry for a component
// with identical atoms — which the validation against the assignment
// catches.
type componentIndex struct {
	parent []AtomID
	// gen is meaningful at root atoms.
	gen []uint32
	// dirty marks roots whose component lost a clause since the last
	// Components call and may therefore have split.
	dirty   map[AtomID]bool
	nextGen uint32

	// changed, once EnableChangeLog made it, accumulates every atom
	// touched and every root whose component moved since the last drain
	// — generation bumps, merged-away roots, resplit pieces. The
	// maintained solve plan drains it to re-list only the components that
	// moved.
	changed map[AtomID]bool

	// resplit scratch, reused across calls so the steady-state
	// single-fact plan path stays allocation-free.
	rsAtoms  []AtomID
	rsSorted []AtomID
	rsLocal  map[AtomID]AtomID
	rsSeen   map[AtomID]bool
}

func newComponentIndex() *componentIndex {
	return &componentIndex{dirty: make(map[AtomID]bool)}
}

// note records a changed atom or root for the maintained plan's drain.
func (ci *componentIndex) note(a AtomID) {
	if ci.changed != nil {
		ci.changed[a] = true
	}
}

// ensure grows the index to cover atom a.
func (ci *componentIndex) ensure(a AtomID) {
	for len(ci.parent) <= int(a) {
		ci.parent = append(ci.parent, AtomID(len(ci.parent)))
		ci.gen = append(ci.gen, 0)
	}
}

func (ci *componentIndex) find(a AtomID) AtomID {
	ci.ensure(a)
	root := a
	for ci.parent[root] != root {
		root = ci.parent[root]
	}
	for ci.parent[a] != root {
		ci.parent[a], a = root, ci.parent[a]
	}
	return root
}

// bump assigns the root a fresh generation.
func (ci *componentIndex) bump(root AtomID) {
	ci.nextGen++
	ci.gen[root] = ci.nextGen
	ci.note(root)
}

// noteClause records that the literal atoms now co-occur in a live
// clause: their components merge and the merged component's generation
// advances. Also called for weight merges and slot revivals — any Add
// that changes clause content.
func (ci *componentIndex) noteClause(lits []Lit) {
	if len(lits) == 0 {
		return
	}
	root := ci.find(lits[0].Atom)
	for _, l := range lits[1:] {
		r := ci.find(l.Atom)
		if r == root {
			continue
		}
		// Union by id keeps the root deterministic.
		if r < root {
			root, r = r, root
		}
		if ci.dirty[r] {
			ci.dirty[root] = true
			delete(ci.dirty, r)
		}
		// The losing root's component is absorbed; log it so the
		// maintained plan retires (or re-lists) what it keyed.
		ci.note(r)
		ci.parent[r] = root
	}
	ci.bump(root)
}

// touch bumps the generation of a's component, schedules it for
// re-derivation and logs a itself as well as the root — for atoms whose
// clauses were tombstoned (the component may have split), and for
// evidence/confidence changes and atom revivals that alter the
// subproblem without touching any clause. Marking the component dirty
// also dissolves stale union links a revived atom may still hold from
// before its retraction: the lazy resplit regroups the component purely
// from live clauses.
func (ci *componentIndex) touch(a AtomID) {
	root := ci.find(a)
	ci.bump(root)
	ci.dirty[root] = true
	ci.note(a)
}

// EnableComponentIndex does nothing: every clause set keeps its
// conflict-component index from its first clause.
//
// Deprecated: kept only until bench/ can be edited.
func (cs *ClauseSet) EnableComponentIndex() {}

// TouchAtom bumps the generation of the component containing atom a,
// schedules it for lazy re-derivation and names a in the change log.
// The incremental grounder calls it whenever an atom is made live or
// its evidence state or confidence changes (including retraction and
// revival), so component solution caches and the maintained plan see
// the change even though no clause did.
func (cs *ClauseSet) TouchAtom(a AtomID) { cs.comps.touch(a) }

// EnableChangeLog switches on change tracking for the maintained solve
// plan: from now on every touched atom (TouchAtom, RemoveAtoms) and
// every root a component mutation (merge, removal, touch, resplit)
// moved is recorded, and DrainChangedRoots hands them to the planner.
// Together they name every atom the incremental grounder interns or
// changes: each phase touches the atoms it changes, and an atom interned
// for a new clause's head is a root that clause moved. It stays off
// until the planner's first build because logging every root of a cold
// ground costs more than the one build that consumes the log.
func (cs *ClauseSet) EnableChangeLog() {
	if cs.comps.changed == nil {
		cs.comps.changed = make(map[AtomID]bool)
	}
}

// DrainChangedRoots invokes fn for every atom and root logged since the
// last drain, each once and in no particular order (callers re-sort by
// canonical position), and clears the log.
func (cs *ClauseSet) DrainChangedRoots(fn func(AtomID)) {
	for a := range cs.comps.changed {
		fn(a)
		delete(cs.comps.changed, a)
	}
}

// ResolveSplits resolves pending component splits against the given
// candidate atoms — which must include every live atom of every dirty
// component (the maintained planner's candidate set, or the full
// canonical order). The resulting union-find state, generations and
// change log are identical to what a full Components call would leave.
// A no-op when nothing is dirty.
func (cs *ClauseSet) ResolveSplits(candidates []AtomID) {
	ci := cs.comps
	if len(ci.dirty) == 0 {
		return
	}
	cs.resplit(ci, candidates)
}

// Find returns the current component root of atom a (atoms in no clause
// are their own root). Pending splits must be resolved first for the
// answer to be final.
func (cs *ClauseSet) Find(a AtomID) AtomID { return cs.comps.find(a) }

// RootGen returns the generation of the component rooted at root.
func (cs *ClauseSet) RootGen(root AtomID) uint64 {
	cs.comps.ensure(root)
	return uint64(cs.comps.gen[root])
}

// Components partitions the given live atoms (in canonical solve order)
// into conflict components: atoms are connected when they co-occur in a
// live clause; atoms in no clause are singletons. Components come back
// ordered by their first atom in the input order, each listing its atoms
// in input order.
//
// The partition is the component index's, maintained incrementally
// from the set's first clause, so generations persist across calls —
// pending splits from clause removals are resolved here, lazily, by
// re-deriving only the dirty components from the atom index.
func (cs *ClauseSet) Components(order []AtomID) []Component {
	ci := cs.comps
	if len(ci.dirty) > 0 {
		cs.resplit(ci, order)
	}

	byRoot := make(map[AtomID]int)
	var comps []Component
	for _, a := range order {
		root := ci.find(a)
		i, ok := byRoot[root]
		if !ok {
			i = len(comps)
			byRoot[root] = i
			comps = append(comps, Component{Key: a, Gen: uint64(ci.gen[root])})
		}
		c := &comps[i]
		if a < c.Key {
			c.Key = a
		}
		c.Atoms = append(c.Atoms, a)
	}
	return comps
}

// ComponentClauses returns the live clauses of one conflict component in
// canonical order, remapped through local into the component's dense
// variable space (local must return the component-local variable of
// every component atom; values for other atoms are never requested).
// atoms must span the component: the gather walks only the component's
// own clauses through the atom index, so collecting the subproblems of
// the dirty components costs time proportional to those components —
// not the clause set.
//
// Local variable numbering follows the component's canonical atom order
// and the clauses are sorted (literals within a clause by variable,
// clauses lexicographically by literals then rule), so two clause sets
// with equal live content yield the identical sequence regardless of
// insertion history — which is what keeps the incremental per-component
// solver inputs byte-identical to a cold solve's. The returned slots
// give each clause's stable slot in cs, for keying warm-start state.
func (cs *ClauseSet) ComponentClauses(atoms []AtomID, local func(AtomID) int32) ([]Clause, []int32) {
	slots := cs.ComponentSlots(atoms)
	out := make([]Clause, len(slots))
	for k, at := range slots {
		c := &cs.clauses[at]
		mc := Clause{Lits: make([]Lit, len(c.Lits)), Weight: c.Weight, Rule: c.Rule}
		for i, l := range c.Lits {
			mc.Lits[i] = Lit{Atom: AtomID(local(l.Atom)), Neg: l.Neg}
		}
		sort.Slice(mc.Lits, func(i, j int) bool {
			if mc.Lits[i].Atom != mc.Lits[j].Atom {
				return mc.Lits[i].Atom < mc.Lits[j].Atom
			}
			return !mc.Lits[i].Neg && mc.Lits[j].Neg
		})
		out[k] = mc
	}
	perm := make([]int, len(out))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return canonicalClauseLess(&out[perm[i]], &out[perm[j]]) })
	sorted := make([]Clause, len(out))
	sortedSlots := make([]int32, len(out))
	for i, p := range perm {
		sorted[i] = out[p]
		sortedSlots[i] = slots[p]
	}
	return sorted, sortedSlots
}

// ComponentSlots gathers the live clause slots touching the given
// atoms, each once, in stable slot order — the component-restricted
// counterpart of a full ForEachSlot pass, for consumers (the repair
// read-out) that need grounding identity rather than a dense
// subproblem. Because a clause's atoms all belong to one conflict
// component, passing a component's atom set yields exactly its
// clauses, in the same relative order ForEachSlot would visit them —
// which is what keeps per-component read-outs byte-identical to
// whole-graph ones. Gather once and iterate with ForEachSlots as often
// as needed. Safe to call concurrently for disjoint components.
func (cs *ClauseSet) ComponentSlots(atoms []AtomID) []int32 {
	var slots []int32
	for _, a := range atoms {
		for _, at := range cs.clausesOf(a) {
			if !cs.dead[at] {
				slots = append(slots, at)
			}
		}
	}
	slices.Sort(slots)
	return slices.Compact(slots)
}

// ForEachSlots invokes fn for the given clause slots in order, until fn
// returns false. The slots must be live (as returned by
// ComponentSlots); the clause must not be modified.
func (cs *ClauseSet) ForEachSlots(slots []int32, fn func(slot int32, c *Clause) bool) {
	for _, at := range slots {
		if !fn(at, &cs.clauses[at]) {
			return
		}
	}
}

// resplit re-derives the dirty components: their live atoms are
// re-grouped through the atom→clause index, detached pieces become new
// components with fresh generations. live must contain every live atom
// of every dirty component (the full canonical order always qualifies;
// the maintained plan passes the far smaller candidate set it tracked).
// Runs in time proportional to the candidates and their clauses, not
// the whole network, and reuses the index's scratch buffers so the
// steady-state single-fact path allocates nothing.
func (cs *ClauseSet) resplit(ci *componentIndex, live []AtomID) {
	atoms := ci.rsAtoms[:0]
	for _, a := range live {
		if ci.dirty[ci.find(a)] {
			atoms = append(atoms, a)
		}
	}
	// Local union-find over the dirty atoms only, rebuilt from the live
	// clauses that mention them (every clause of a dirty component only
	// mentions atoms of that component, so the local view is complete).
	if ci.rsLocal == nil {
		ci.rsLocal = make(map[AtomID]AtomID, len(atoms))
	} else {
		for k := range ci.rsLocal {
			delete(ci.rsLocal, k)
		}
	}
	local := ci.rsLocal
	for _, a := range atoms {
		local[a] = a
	}
	lfind := func(a AtomID) AtomID {
		r := a
		for local[r] != r {
			r = local[r]
		}
		for local[a] != r {
			local[a], a = r, local[a]
		}
		return r
	}
	for _, a := range atoms {
		for _, at := range cs.clausesOf(a) {
			if cs.dead[at] {
				continue
			}
			for _, l := range cs.clauses[at].Lits {
				if l.Atom == a {
					continue
				}
				if _, ok := local[l.Atom]; !ok {
					continue // retracted partner: not in the live order
				}
				ra, rb := lfind(a), lfind(l.Atom)
				if ra != rb {
					if rb < ra {
						ra, rb = rb, ra
					}
					local[rb] = ra
				}
			}
		}
	}
	// Re-point the global structure at the new roots and assign fresh
	// generations, one per piece, in ascending atom order so the values
	// are deterministic.
	sorted := append(ci.rsSorted[:0], atoms...)
	slices.Sort(sorted)
	ci.rsSorted = sorted
	ci.rsAtoms = atoms
	if ci.rsSeen == nil {
		ci.rsSeen = make(map[AtomID]bool)
	} else {
		for k := range ci.rsSeen {
			delete(ci.rsSeen, k)
		}
	}
	for _, a := range sorted {
		r := lfind(a)
		ci.parent[a] = r
		if !ci.rsSeen[r] {
			ci.rsSeen[r] = true
			ci.parent[r] = r
			ci.bump(r)
		}
	}
	for k := range ci.dirty {
		delete(ci.dirty, k)
	}
}
