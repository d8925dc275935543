// Package ground implements the grounding engine of TeCoRe: it
// instantiates temporal inference rules and constraints against the
// evidence in a quad store, producing the ground weighted clauses that
// the MLN and PSL solvers optimise over.
//
// Grounding is database-style: body atoms are joined against the store
// (and against derived facts) using index lookups, ordered greedily by
// boundness; numerical and Allen conditions are evaluated as early as
// their variables are bound, pruning the join. Inference rules are
// closed under forward chaining first, so rule cascades (playsFor ⇒
// worksFor ⇒ livesIn) materialise all derivable head atoms before clause
// emission.
//
// Grounding runs in one code space, the evidence store's term
// dictionary: atom keys, join frames, compiled rule constants and the
// derived-fact store all hold its codes, so a matched fact resolves to
// its atom by a hash lookup on codes, with no translation and no
// strings. Rule-head constants absent from the data are interned into
// the store's dictionary (under its lock) when a rule is compiled.
//
// # Concurrency model
//
// Every join phase — Close's full pass, each seminaive round of
// CloseDelta, and the clause emission of GroundProgram and GroundDelta —
// runs through one runner (runPhase) over a task list: one task per
// rule, or per rule and delta position on the seminaive passes; on a
// full pass with several workers a rule's depth-0 candidates are
// additionally split into contiguous chunks of at most about
// total/(2·workers), so a heavy rule does not run on one core. A phase
// is two functions:
//
//   - emit resolves one grounding against read-only store views and the
//     atom table (lookups only) and decides what to keep: a head
//     statement to derive, or a clause whose head, if not yet interned,
//     travels as a pending key of term codes.
//   - commit applies a kept item at a sequential point: intern or
//     revive a head and add it to the derived store, or intern a
//     pending head and add the clause.
//
// With one worker or one task the phase runs inline — commit follows
// each emission directly, with no buffer and a reused literal scratch.
// Otherwise Parallelism workers enumerate tasks concurrently into
// private buffers (blocks that double from a small first block and are
// never regrown), and a sequential merge commits them. Either way items
// are committed in task order — rule order, then chunk order — then
// join-enumeration order, so atom ids, clause contents and clause order
// are byte-identical for every Parallelism setting, including 1.
package ground

import (
	"cmp"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/temporal"
)

// AtomID identifies a ground atom (a potential temporal fact) in the
// ground network. IDs are dense from 0.
type AtomID int32

// atomKey is the interned form of a ground atom's statement: term codes
// from the evidence store's dictionary plus the validity interval. At 32
// bytes it replaces the 184-byte rdf.FactKey as both the map key and the
// per-atom stored key — at millions of atoms the struct-of-arrays layout
// below is the difference between fitting in memory and not.
type atomKey struct {
	s, p, o store.TermID
	iv      temporal.Interval
}

// atomMix is SplitMix64's finalizer, the avalanche stage of atom-key
// hashing. Deterministic across processes.
func atomMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (k atomKey) hash() uint64 {
	h := atomMix(uint64(k.s)<<32 | uint64(k.p))
	h = atomMix(h ^ uint64(k.o))
	h = atomMix(h ^ uint64(k.iv.Start))
	return atomMix(h ^ uint64(k.iv.End))
}

// Atom flag bits.
const (
	atomEvidence uint8 = 1 << iota
	atomRetracted
)

// AtomTable interns ground atoms. Every atom corresponds to a temporal
// statement (subject, predicate, object, interval); atoms backed by an
// input fact are evidence atoms and carry its confidence.
//
// Internally the table is struct-of-arrays over interned keys: a key's
// terms are codes of the evidence store's dictionary (the table holds no
// dictionary of its own), per-atom state lives in parallel slices (key
// codes, flag bits, confidences, backing fact ids), and the key→id map is
// keyed by a 64-bit hash with a linear-scanned spill list for colliding
// keys — every hash hit is verified against the stored key, so collisions
// cost time, never correctness. The public surface still speaks
// rdf.FactKey; Info materialises it on demand from a frozen prefix of the
// store's term slice, refreshed whenever a new key's code lies beyond it.
//
// Concurrency follows the grounder's emit/commit protocol: the
// read-side methods (Lookup, Info, Len) are safe for any number of
// concurrent readers, while Intern and InternEvidence may only run at
// sequential points — the grounder's commits — with no reader in
// flight. Lookup is the hottest call in grounding (once per visited
// quad), so the table carries no lock; the phase discipline, checked by
// the race-detector suites, is what makes the sharing sound, and the
// deterministic commit order is what keeps id assignment reproducible.
type AtomTable struct {
	src   *store.Store
	terms []rdf.Term // frozen prefix of src's terms covering every key
	ids   map[uint64]AtomID
	spill []AtomID
	keys  []atomKey
	flags []uint8
	confs []float64
	fids  []store.FactID
}

// AtomInfo describes one ground atom.
type AtomInfo struct {
	// Key is the temporal statement this atom asserts.
	Key rdf.FactKey
	// Evidence reports whether the atom is backed by an input fact.
	Evidence bool
	// Retracted marks atoms whose backing fact was removed and that are
	// no longer derivable. Atom ids are stable, so the slot stays; the
	// atom is excluded from solving until a later update revives it.
	Retracted bool
	// Conf is the confidence of the backing fact (0 for derived atoms).
	Conf float64
	// FactID is the backing fact in the main store (-1 for derived).
	FactID store.FactID
}

// NewAtomTable returns an empty atom table whose keys use src's term
// codes.
func NewAtomTable(src *store.Store) *AtomTable {
	return &AtomTable{src: src, terms: src.Terms(), ids: make(map[uint64]AtomID)}
}

// lookupKey finds the atom with exactly this encoded key, checking the
// hash slot first and the collision spill after.
func (t *AtomTable) lookupKey(k atomKey) (AtomID, bool) {
	if id, ok := t.ids[k.hash()]; ok {
		if t.keys[id] == k {
			return id, true
		}
		for _, id := range t.spill {
			if t.keys[id] == k {
				return id, true
			}
		}
	}
	return 0, false
}

// Intern returns the id for the statement key, creating a non-evidence
// atom when unseen; terms the store has never seen are interned into its
// dictionary. Callers must hold no concurrent readers (see the type
// comment).
func (t *AtomTable) Intern(key rdf.FactKey) AtomID {
	return t.intern(t.encode(key))
}

// encode interns the key's terms into the store's dictionary.
func (t *AtomTable) encode(key rdf.FactKey) atomKey {
	return atomKey{
		s:  t.src.InternTerm(key.S),
		p:  t.src.InternTerm(key.P),
		o:  t.src.InternTerm(key.O),
		iv: key.Interval,
	}
}

// intern is Intern for an encoded key.
func (t *AtomTable) intern(k atomKey) AtomID {
	if id, ok := t.lookupKey(k); ok {
		return id
	}
	if int(max(k.s, k.p, k.o)) >= len(t.terms) {
		t.terms = t.src.Terms()
	}
	id := AtomID(len(t.keys))
	h := k.hash()
	if _, ok := t.ids[h]; ok {
		t.spill = append(t.spill, id)
	} else {
		t.ids[h] = id
	}
	t.keys = append(t.keys, k)
	t.flags = append(t.flags, 0)
	t.confs = append(t.confs, 0)
	t.fids = append(t.fids, -1)
	return id
}

// InternEvidence returns the id for the statement key, marking it as
// evidence with the given confidence and backing fact. Write-side: see
// the type comment.
func (t *AtomTable) InternEvidence(key rdf.FactKey, conf float64, fid store.FactID) AtomID {
	return t.internEvidence(t.encode(key), conf, fid)
}

// internEvidence is InternEvidence for an encoded key.
func (t *AtomTable) internEvidence(k atomKey, conf float64, fid store.FactID) AtomID {
	id := t.intern(k)
	if t.flags[id]&atomEvidence == 0 {
		t.flags[id] |= atomEvidence
		t.confs[id] = conf
		t.fids[id] = fid
	} else if conf > t.confs[id] {
		t.confs[id] = conf
	}
	return id
}

// Retract marks the atom as dead: its backing fact was removed and no
// rule derivation survives. Write-side: see the type comment.
func (t *AtomTable) Retract(id AtomID) {
	t.flags[id] = atomRetracted
	t.confs[id] = 0
	t.fids[id] = -1
}

// SetEvidence (re)binds the atom to a live input fact, reviving it if
// retracted. Unlike InternEvidence it assigns the confidence exactly —
// the incremental path mirrors the store state rather than merging
// extraction runs. Write-side: see the type comment.
func (t *AtomTable) SetEvidence(id AtomID, conf float64, fid store.FactID) {
	t.flags[id] = atomEvidence
	t.confs[id] = conf
	t.fids[id] = fid
}

// SetDerived demotes the atom to a plain derived atom (no evidence
// backing), reviving it if retracted. Used when an evidence fact is
// removed but the statement remains derivable, and when forward chaining
// re-derives a retracted atom. Write-side: see the type comment.
func (t *AtomTable) SetDerived(id AtomID) {
	t.flags[id] = 0
	t.confs[id] = 0
	t.fids[id] = -1
}

// Lookup returns the id of a statement without interning. Safe for
// concurrent readers.
func (t *AtomTable) Lookup(key rdf.FactKey) (AtomID, bool) {
	s, ok := t.src.TermCode(key.S)
	if !ok {
		return 0, false
	}
	p, ok := t.src.TermCode(key.P)
	if !ok {
		return 0, false
	}
	o, ok := t.src.TermCode(key.O)
	if !ok {
		return 0, false
	}
	return t.lookupKey(atomKey{s: s, p: p, o: o, iv: key.Interval})
}

// Info returns the atom's description, materialising the statement key
// from the interned codes. Safe for concurrent readers.
func (t *AtomTable) Info(id AtomID) AtomInfo {
	fl := t.flags[id]
	return AtomInfo{
		Key:       t.KeyView().Key(id),
		Evidence:  fl&atomEvidence != 0,
		Retracted: fl&atomRetracted != 0,
		Conf:      t.confs[id],
		FactID:    t.fids[id],
	}
}

// Len returns the number of interned atoms. Safe for concurrent readers.
func (t *AtomTable) Len() int { return len(t.keys) }

// IsEvidence reports whether the atom is backed by an input fact,
// without materialising the statement key. Safe for concurrent readers.
func (t *AtomTable) IsEvidence(id AtomID) bool { return t.flags[id]&atomEvidence != 0 }

// IsRetracted reports whether the atom is retracted, without
// materialising the statement key. Safe for concurrent readers.
func (t *AtomTable) IsRetracted(id AtomID) bool { return t.flags[id]&atomRetracted != 0 }

// Confidence returns the backing fact's confidence (0 for derived
// atoms), without materialising the statement key. Safe for concurrent
// readers.
func (t *AtomTable) Confidence(id AtomID) float64 { return t.confs[id] }

// BackingFact returns the backing fact id (-1 for derived atoms),
// without materialising the statement key. Safe for concurrent readers.
func (t *AtomTable) BackingFact(id AtomID) store.FactID { return t.fids[id] }

// CompareCanonical is the canonical solve order: evidence atoms first,
// by backing fact id, then derived atoms by statement key (CompareKeys).
// Fact ids are stable in the store and derived keys are
// interning-order-free, so a fresh grounder and a long-lived incremental
// one order the same store state identically — the basis for
// byte-identical solver inputs. Safe for concurrent readers.
func (t *AtomTable) CompareCanonical(a, b AtomID) int {
	ea, eb := t.IsEvidence(a), t.IsEvidence(b)
	switch {
	case ea && eb:
		return cmp.Compare(t.fids[a], t.fids[b])
	case ea:
		return -1
	case eb:
		return 1
	}
	return t.CompareKeys(a, b)
}

// CompareKeys orders two atoms by their statement keys, exactly as
// rdf.FactKey.Compare orders the keys Info would materialise — the
// derived-segment comparator of the canonical solve order, without the
// per-call FactKey construction. Safe for concurrent readers.
func (t *AtomTable) CompareKeys(a, b AtomID) int {
	ka, kb := &t.keys[a], &t.keys[b]
	if ka.s != kb.s {
		if c := t.terms[ka.s].Compare(t.terms[kb.s]); c != 0 {
			return c
		}
	}
	if ka.p != kb.p {
		if c := t.terms[ka.p].Compare(t.terms[kb.p]); c != 0 {
			return c
		}
	}
	if ka.o != kb.o {
		if c := t.terms[ka.o].Compare(t.terms[kb.o]); c != 0 {
			return c
		}
	}
	switch {
	case ka.iv.Start != kb.iv.Start:
		if ka.iv.Start < kb.iv.Start {
			return -1
		}
		return 1
	case ka.iv.End != kb.iv.End:
		if ka.iv.End < kb.iv.End {
			return -1
		}
		return 1
	}
	return 0
}

// KeyView is a frozen, read-only view of the statement keys of the atoms
// interned when it was taken: a prefix of the table's key codes and of
// the store's terms. Neither is ever rewritten below its length —
// growth relocates, and Retract, SetEvidence and SetDerived touch flags,
// confidences and fact ids only — so a view can be read without any
// lock while the table goes on interning. The zero view holds no atom.
type KeyView struct {
	keys  []atomKey
	terms []rdf.Term
}

// KeyView captures the keys of every atom interned so far. Like Intern it
// must not race with a writer; the view it returns races with nothing.
func (t *AtomTable) KeyView() KeyView {
	return KeyView{keys: t.keys, terms: t.terms}
}

// Key materialises the statement key of an atom the view covers.
func (v KeyView) Key(id AtomID) rdf.FactKey {
	k := &v.keys[id]
	return rdf.FactKey{S: v.terms[k.s], P: v.terms[k.p], O: v.terms[k.o], Interval: k.iv}
}

// EvidenceAtoms returns the ids of all evidence atoms.
func (t *AtomTable) EvidenceAtoms() []AtomID {
	var out []AtomID
	for i, fl := range t.flags {
		if fl&atomEvidence != 0 {
			out = append(out, AtomID(i))
		}
	}
	return out
}

// DerivedAtoms returns the ids of all non-evidence (derived) atoms.
func (t *AtomTable) DerivedAtoms() []AtomID {
	var out []AtomID
	for i, fl := range t.flags {
		if fl&atomEvidence == 0 {
			out = append(out, AtomID(i))
		}
	}
	return out
}
