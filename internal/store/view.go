package store

import (
	"sync"

	"repro/internal/temporal"
)

// View is an epoch-pinned, read-only snapshot of a Store, safe for
// concurrent use by any number of readers while writers proceed. A view
// created at epoch e sees exactly the facts live at e: later adds,
// removes and revivals are invisible, so a multi-call read sequence
// (the grounder's join phases) observes one consistent state.
//
// A View aliases the store rather than copying it. Reads acquire the
// store's shared lock per call and never hold it across user callbacks,
// so callbacks may re-enter the store freely. The one un-versioned
// dimension is confidence: a confidence raise mutates the fact in place,
// so FactCodes and MatchCodes report the value current at read time, not
// at pin time — the pipeline treats confidence as monotone merge
// metadata, not as part of the fact's identity.
type View struct {
	st    *Store
	epoch Epoch
	n     int
}

// ReadView returns a read-only view pinned at the store's current epoch.
// The receiver remains usable and mutable; the view keeps seeing the
// pinned state.
func (st *Store) ReadView() View {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return View{st: st, epoch: st.epoch, n: len(st.facts) - st.dead}
}

// Epoch returns the store epoch the view is pinned at.
func (v View) Epoch() Epoch { return v.epoch }

// Len returns the number of facts live at the pinned epoch.
func (v View) Len() int { return v.n }

type matched struct {
	id FactID
	f  fact
}

// matchBufPool recycles MatchCodes' per-call buffers. Grounding issues
// one MatchCodes per join step — millions on a large solve — and the
// pooled buffer (capacity retained across calls, no pointers inside)
// makes the steady state allocation-free. Nested calls from inside fn
// each draw their own buffer, so re-entrancy stays safe.
var matchBufPool = sync.Pool{New: func() any { return new([]matched) }}

// FactCodes is the dictionary-encoded form of a stored fact as handed to
// MatchCodes: term codes plus interval and confidence.
type FactCodes struct {
	S, P, O  TermID
	Interval temporal.Interval
	Conf     float64
}

// FactCodes returns the encoded form of the fact with the given id. The
// id must have been assigned no later than the pinned epoch.
func (v View) FactCodes(id FactID) FactCodes {
	v.st.mu.RLock()
	f := v.st.facts[id]
	v.st.mu.RUnlock()
	return FactCodes{S: f.s, P: f.p, O: f.o, Interval: f.iv, Conf: f.conf}
}

// MatchCodes invokes fn for each fact live at the pinned epoch matching
// the code pattern, in ascending fact-id order, until fn returns false.
// The pattern arrives pre-resolved and the matches are emitted as raw
// codes — the grounder's join path, which never needs the terms
// themselves. The matches are buffered under the read lock and the lock
// released before fn runs, so fn may freely re-enter the store (the
// grounder's nested joins do) without risking a reader/writer deadlock;
// the pooled per-call buffer is the price of that guarantee.
func (v View) MatchCodes(cp CodePattern, fn func(FactID, FactCodes) bool) {
	bufp := matchBufPool.Get().(*[]matched)
	ms := (*bufp)[:0]
	v.st.mu.RLock()
	v.st.forCandidatesCodesLocked(cp, v.epoch, func(id FactID, f fact) bool {
		ms = append(ms, matched{id: id, f: f})
		return true
	})
	v.st.mu.RUnlock()
	for _, m := range ms {
		if !fn(m.id, FactCodes{S: m.f.s, P: m.f.p, O: m.f.o, Interval: m.f.iv, Conf: m.f.conf}) {
			break
		}
	}
	*bufp = ms[:0]
	matchBufPool.Put(bufp)
}

// MatchCodeIDs returns the ids of all facts live at the pinned epoch
// matching the code pattern.
func (v View) MatchCodeIDs(cp CodePattern) []FactID {
	v.st.mu.RLock()
	defer v.st.mu.RUnlock()
	var out []FactID
	v.st.forCandidatesCodesLocked(cp, v.epoch, func(id FactID, f fact) bool {
		out = append(out, id)
		return true
	})
	return out
}

// PostingLen returns the length of the posting list of term code t at
// position pos (0 subject, 1 predicate, 2 object) in O(1): an upper
// bound on matching facts (tombstoned entries stay in their lists). The
// join planner's per-constant selectivity.
func (v View) PostingLen(pos int, t TermID) int {
	v.st.mu.RLock()
	defer v.st.mu.RUnlock()
	return len(posting([3][][]FactID{v.st.byS, v.st.byP, v.st.byO}[pos], t))
}
