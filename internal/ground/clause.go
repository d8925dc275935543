package ground

import (
	"fmt"
	"math"
	"strings"
)

// Lit is a literal: a ground atom or its negation.
type Lit struct {
	Atom AtomID
	Neg  bool
}

// String renders the literal as "a12" or "!a12".
func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("!a%d", l.Atom)
	}
	return fmt.Sprintf("a%d", l.Atom)
}

// Clause is a weighted ground disjunction of literals. Hard clauses
// (infinite weight) must be satisfied; soft clauses contribute their
// weight when satisfied.
type Clause struct {
	Lits   []Lit
	Weight float64
	// Rule is the name of the rule or constraint this clause was
	// grounded from, for statistics and conflict explanations.
	Rule string
}

// Hard reports whether the clause is deterministic.
func (c *Clause) Hard() bool { return math.IsInf(c.Weight, 1) }

// Satisfied reports whether the clause holds under the assignment.
func (c *Clause) Satisfied(truth func(AtomID) bool) bool {
	for _, l := range c.Lits {
		if truth(l.Atom) != l.Neg {
			return true
		}
	}
	return false
}

// String renders the clause as "!a0 | !a4 [w=inf, rule=c2]".
func (c *Clause) String() string {
	var b strings.Builder
	for i, l := range c.Lits {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(l.String())
	}
	if c.Hard() {
		b.WriteString(" [w=inf")
	} else {
		fmt.Fprintf(&b, " [w=%g", c.Weight)
	}
	if c.Rule != "" {
		b.WriteString(", rule=")
		b.WriteString(c.Rule)
	}
	b.WriteByte(']')
	return b.String()
}

// normalize sorts literals, removes duplicates, and reports whether the
// clause is a tautology (contains both a and !a) and therefore skippable.
func (c *Clause) normalize() (tautology bool) {
	// Insertion sort by (atom, positive-first): clauses hold a handful of
	// literals and this runs once per emitted grounding — millions of
	// times per cold ground — where sort.Slice's reflection swapper was
	// measurable.
	lits := c.Lits
	for i := 1; i < len(lits); i++ {
		l := lits[i]
		j := i - 1
		for j >= 0 && (lits[j].Atom > l.Atom || (lits[j].Atom == l.Atom && lits[j].Neg && !l.Neg)) {
			lits[j+1] = lits[j]
			j--
		}
		lits[j+1] = l
	}
	out := c.Lits[:0]
	for i, l := range c.Lits {
		if i > 0 && l == c.Lits[i-1] {
			continue
		}
		if i > 0 && l.Atom == c.Lits[i-1].Atom {
			return true
		}
		out = append(out, l)
	}
	c.Lits = out
	return false
}

// keyHash hashes a clause's dedup identity — the normalized literal
// list plus the rule name — FNV-1a style with an avalanche finish.
// Deduplication never trusts the hash alone: candidates are verified
// with sameKey, colliding clauses spill to a linear-scanned list.
func keyHash(lits []Lit, rule string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, l := range lits {
		x := uint64(uint32(l.Atom)) << 1
		if l.Neg {
			x |= 1
		}
		h ^= x
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(rule); i++ {
		h ^= uint64(rule[i])
		h *= prime
	}
	return atomMix(h)
}

// sameKey reports whether the clause has exactly this dedup identity.
func (c *Clause) sameKey(lits []Lit, rule string) bool {
	if c.Rule != rule || len(c.Lits) != len(lits) {
		return false
	}
	for i, l := range c.Lits {
		if l != lits[i] {
			return false
		}
	}
	return true
}

// ClauseSet accumulates ground clauses with deduplication. Identical soft
// groundings merge by summing weights (equivalent objective, matching how
// RockIt aggregates feature counts); identical hard groundings collapse.
//
// A clause set can live across incremental solves: RemoveAtoms tombstones
// every clause mentioning a retracted atom (a grounding's participating
// atoms all appear among its literals, so atom membership is exactly
// grounding membership), and a later Add of the same grounding revives
// the slot. From its first clause a set keeps the atom → clause index
// this needs, its tombstone flags and its conflict-component index (see
// components.go).
type ClauseSet struct {
	clauses []Clause
	dead    []bool
	nDead   int
	// index maps a clause's 64-bit key hash to its slot; colliding
	// clauses (different identity, same hash) spill into indexSpill.
	// Replaces a map keyed by a per-clause canonical string — at
	// millions of groundings the string builds dominated Add and the
	// keys dwarfed the clauses they deduplicated.
	index      map[uint64]int32
	indexSpill []int32
	// byAtom maps an atom to the clause positions mentioning it (live or
	// dead): a dense slice indexed by AtomID — atom ids are dense, so
	// the slice replaces a hash map without waste.
	byAtom [][]int32
	// comps tracks conflict components incrementally.
	comps *componentIndex
}

// NewClauseSet returns an empty clause set.
func NewClauseSet() *ClauseSet {
	return &ClauseSet{index: make(map[uint64]int32), comps: newComponentIndex()}
}

// NewClauseSetSized returns an empty clause set pre-sized for about hint
// clauses, so bulk grounding neither rehashes the dedup index nor
// regrows the clause slab as it fills.
func NewClauseSetSized(hint int) *ClauseSet {
	if hint <= 0 {
		return NewClauseSet()
	}
	return &ClauseSet{
		index:   make(map[uint64]int32, hint),
		clauses: make([]Clause, 0, hint),
		dead:    make([]bool, 0, hint),
		comps:   newComponentIndex(),
	}
}

// ownLits copies a literal slice the set is about to retain — callers
// (the sequential grounding path in particular) reuse their emission
// buffers.
func ownLits(lits []Lit) []Lit {
	out := make([]Lit, len(lits))
	copy(out, lits)
	return out
}

// findSlot locates the clause with this dedup identity, checking the
// hash slot first and the collision spill after.
func (cs *ClauseSet) findSlot(h uint64, lits []Lit, rule string) (int, bool) {
	if at, ok := cs.index[h]; ok {
		if cs.clauses[at].sameKey(lits, rule) {
			return int(at), true
		}
		for _, at := range cs.indexSpill {
			if cs.clauses[at].sameKey(lits, rule) {
				return int(at), true
			}
		}
	}
	return 0, false
}

// EnableAtomIndex does nothing: every clause set keeps its atom index
// from its first clause.
//
// Deprecated: kept only until bench/ can be edited.
func (cs *ClauseSet) EnableAtomIndex() {}

func (cs *ClauseSet) indexAtoms(at int) {
	for _, l := range cs.clauses[at].Lits {
		if n := int(l.Atom) + 1; n > len(cs.byAtom) {
			if n <= cap(cs.byAtom) {
				cs.byAtom = cs.byAtom[:n]
			} else {
				grown := make([][]int32, n, n+n/2+8)
				copy(grown, cs.byAtom)
				cs.byAtom = grown
			}
		}
		cs.byAtom[l.Atom] = append(cs.byAtom[l.Atom], int32(at))
	}
}

// clausesOf returns the indexed clause slots mentioning atom a.
func (cs *ClauseSet) clausesOf(a AtomID) []int32 {
	if int(a) < len(cs.byAtom) {
		return cs.byAtom[a]
	}
	return nil
}

// Add normalizes and inserts a clause, merging duplicates and reviving
// tombstoned slots. Tautologies and empty soft clauses are dropped.
// Adding an empty hard clause — an unconditionally violated constraint —
// is reported by returning false so callers can surface the
// contradiction.
func (cs *ClauseSet) Add(c Clause) bool {
	if c.normalize() {
		return true // tautology: trivially satisfied
	}
	if len(c.Lits) == 0 {
		return !c.Hard()
	}
	h := keyHash(c.Lits, c.Rule)
	if at, ok := cs.findSlot(h, c.Lits, c.Rule); ok {
		if cs.dead[at] {
			// Revive: the grounding returns after its atoms came back;
			// this emission replaces the dropped aggregate.
			c.Lits = ownLits(c.Lits)
			cs.clauses[at] = c
			cs.dead[at] = false
			cs.nDead--
			cs.comps.noteClause(c.Lits)
			return true
		}
		if !cs.clauses[at].Hard() && !c.Hard() {
			cs.clauses[at].Weight += c.Weight
		} else if c.Hard() {
			cs.clauses[at].Weight = math.Inf(1)
		}
		cs.comps.noteClause(c.Lits)
		return true
	}
	at := int32(len(cs.clauses))
	if _, ok := cs.index[h]; ok {
		cs.indexSpill = append(cs.indexSpill, at)
	} else {
		cs.index[h] = at
	}
	c.Lits = ownLits(c.Lits)
	if len(cs.clauses) == cap(cs.clauses) && cap(cs.clauses) >= 1024 {
		// Doubling growth: append's ~1.25× large-slice policy allocates
		// (and zeroes) several times the final footprint across a bulk
		// ground; doubling halves that traffic.
		grown := make([]Clause, len(cs.clauses), 2*cap(cs.clauses))
		copy(grown, cs.clauses)
		cs.clauses = grown
	}
	cs.clauses = append(cs.clauses, c)
	cs.dead = append(cs.dead, false)
	cs.indexAtoms(len(cs.clauses) - 1)
	cs.comps.noteClause(c.Lits)
	return true
}

// RemoveAtoms tombstones every live clause mentioning any of the given
// atoms, returning the number dropped.
func (cs *ClauseSet) RemoveAtoms(atoms []AtomID) int {
	removed := 0
	for _, a := range atoms {
		for _, at := range cs.clausesOf(a) {
			if !cs.dead[at] {
				cs.dead[at] = true
				cs.nDead++
				removed++
			}
		}
		// The atom's component lost clauses and may have split; it is
		// re-derived lazily at the next Components call.
		cs.comps.touch(a)
	}
	return removed
}

// ForEach invokes fn for every live clause in slot order until fn
// returns false. The clause must not be modified.
func (cs *ClauseSet) ForEach(fn func(*Clause) bool) {
	cs.ForEachSlot(func(_ int32, c *Clause) bool { return fn(c) })
}

// ForEachSlot is ForEach exposing each clause's slot index. Slots are
// dense and stable for the life of the set — tombstoned slots are
// skipped and a revived grounding reuses its old slot — so they index
// per-clause state across incremental solves (the PSL warm iterate
// tables, sized by SlotCount).
func (cs *ClauseSet) ForEachSlot(fn func(int32, *Clause) bool) {
	for at := range cs.clauses {
		if cs.dead[at] {
			continue
		}
		if !fn(int32(at), &cs.clauses[at]) {
			return
		}
	}
}

// Clauses returns the accumulated live clauses. The slice must not be
// modified.
func (cs *ClauseSet) Clauses() []Clause {
	if cs.nDead == 0 {
		return cs.clauses
	}
	out := make([]Clause, 0, len(cs.clauses)-cs.nDead)
	for at := range cs.clauses {
		if !cs.dead[at] {
			out = append(out, cs.clauses[at])
		}
	}
	return out
}

// Len returns the number of distinct live clauses.
func (cs *ClauseSet) Len() int { return len(cs.clauses) - cs.nDead }

// SlotCount returns the number of slots ever assigned, live or
// tombstoned: every slot index is below it.
func (cs *ClauseSet) SlotCount() int { return len(cs.clauses) }

// SupportScan visits the live inference clauses that mention atom a,
// reporting each clause's head (its single positive literal) and body
// (the negated literals). Constraint clauses — all-negative — are
// skipped. Used by the incremental engine's delete/rederive pass, which
// reads rule groundings as derivation records.
func (cs *ClauseSet) SupportScan(a AtomID, fn func(head AtomID, c *Clause) bool) {
	for _, at := range cs.clausesOf(a) {
		if cs.dead[at] {
			continue
		}
		c := &cs.clauses[at]
		head, ok := clauseHead(c)
		if !ok {
			continue
		}
		if !fn(head, c) {
			return
		}
	}
}

// clauseHead returns the single positive literal of an inference clause;
// ok is false for all-negative (constraint) clauses.
func clauseHead(c *Clause) (AtomID, bool) {
	for _, l := range c.Lits {
		if !l.Neg {
			return l.Atom, true
		}
	}
	return 0, false
}
