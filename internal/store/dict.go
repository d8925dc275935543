package store

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// TermID is the dictionary code of an RDF term. IDs are dense and start
// at 1; 0 is reserved as "no term" (pattern wildcard).
type TermID uint32

// NoTerm is the TermID wildcard.
const NoTerm TermID = 0

// Dict is a bidirectional dictionary between RDF terms and dense integer
// codes. Encoding terms once lets the store, the grounder and the solvers
// work on word-sized values.
//
// The forward direction maps a 64-bit term hash to the code and verifies
// candidates against the code-indexed term slice, instead of keying a map
// by the 56-byte Term struct — at millions of terms the duplicated
// structs and their map buckets were the dictionary's dominant cost.
// Colliding terms (different term, same hash) spill into a short
// linear-scanned list; a hash hit is never trusted without an equality
// check, so collisions cost time, never correctness.
type Dict struct {
	byHash map[uint64]TermID
	spill  []TermID
	toT    []rdf.Term // index 0 unused
	// own copies a term's strings on first sight, so the dictionary
	// never pins the buffer they were sliced from (a parser's input line).
	own bool
}

// newDict returns an empty dictionary that copies the strings of every
// term it interns: the store's terms arrive sliced out of whole input
// lines.
func newDict() *Dict {
	return &Dict{
		byHash: make(map[uint64]TermID),
		toT:    make([]rdf.Term, 1),
		own:    true,
	}
}

// termHash is FNV-1a over the term's fields with an avalanche finish,
// deterministic across processes. Field boundaries are marked so
// ("ab","c") and ("a","bc") in adjacent fields hash differently.
func termHash(t rdf.Term) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	h ^= uint64(t.Kind)
	h *= prime
	mix(t.Value)
	mix(t.Datatype)
	mix(t.Lang)
	return mix64(h)
}

// Encode interns the term and returns its code, assigning a fresh one on
// first sight.
func (d *Dict) Encode(t rdf.Term) TermID {
	h := termHash(t)
	id, ok := d.byHash[h]
	if ok {
		if d.toT[id] == t {
			return id
		}
		for _, id := range d.spill {
			if d.toT[id] == t {
				return id
			}
		}
	}
	fresh := TermID(len(d.toT))
	if d.own {
		t.Value, t.Datatype, t.Lang = strings.Clone(t.Value), strings.Clone(t.Datatype), strings.Clone(t.Lang)
	}
	d.toT = append(d.toT, t)
	if ok {
		d.spill = append(d.spill, fresh)
	} else {
		d.byHash[h] = fresh
	}
	return fresh
}

// Lookup returns the code of the term without interning it; ok is false
// when the term has never been seen.
func (d *Dict) Lookup(t rdf.Term) (TermID, bool) {
	if id, ok := d.byHash[termHash(t)]; ok {
		if d.toT[id] == t {
			return id, true
		}
		for _, id := range d.spill {
			if d.toT[id] == t {
				return id, true
			}
		}
	}
	return 0, false
}

// Decode returns the term for a code. It panics on an unknown code, which
// always indicates a bug in the caller.
func (d *Dict) Decode(id TermID) rdf.Term {
	if id == NoTerm || int(id) >= len(d.toT) {
		panic(fmt.Sprintf("store: decode of unknown term id %d", id))
	}
	return d.toT[id]
}

// Len returns the number of distinct terms interned.
func (d *Dict) Len() int { return len(d.toT) - 1 }

// Terms returns the code-indexed term slice (index 0 unused). The header
// copy is a frozen prefix, safe to read without the owner's lock while
// the dictionary grows: entries are immutable once published and growth
// relocates rather than mutates.
func (d *Dict) Terms() []rdf.Term { return d.toT }
