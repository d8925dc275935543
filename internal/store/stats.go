package store

import (
	"sort"
	"unsafe"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// PredicateStat summarises the facts of one predicate, as displayed by
// the Web UI's dataset page and the statistics view of Figure 8.
type PredicateStat struct {
	// Predicate is the predicate IRI.
	Predicate string
	// Count is the number of facts.
	Count int
	// Span is the smallest interval covering all validity intervals.
	Span temporal.Interval
	// MeanConfidence is the average confidence of the facts.
	MeanConfidence float64
	// Subjects is the number of distinct subjects.
	Subjects int
}

// MemoryStats estimates the store's resident footprint from its own
// bookkeeping: fact table, change log, revive history, posting indexes
// and the interning dictionary — which, once a session has grounded a
// program, also holds the rule-head constants no fact uses (see
// InternTerm), so Terms and DictBytes count them. The numbers are
// layout-derived estimates (struct sizes plus measured container
// overheads), not a heap profile — their job is tracking the
// bytes/fact trajectory as the store scales, cheaply enough to serve
// from a live session.
type MemoryStats struct {
	// Terms is the number of distinct interned terms, rule-head
	// constants interned by grounding included.
	Terms int `json:"terms"`
	// FactBytes covers the fact table, change log and revive history.
	FactBytes int64 `json:"fact_bytes"`
	// PostingBytes covers every posting index (term positions and the
	// duplicate-detection fact key index).
	PostingBytes int64 `json:"posting_bytes"`
	// DictBytes covers the interning dictionary, term structs and
	// string payloads included.
	DictBytes int64 `json:"dict_bytes"`
	// TotalBytes sums the components above.
	TotalBytes int64 `json:"total_bytes"`
	// BytesPerFact is TotalBytes over the total (live + tombstoned)
	// fact count; 0 for an empty store.
	BytesPerFact float64 `json:"bytes_per_fact"`
}

// Stats summarises a whole store.
type Stats struct {
	// Facts is the total number of distinct facts.
	Facts int
	// Terms is the number of distinct dictionary terms.
	Terms int
	// Predicates lists per-predicate statistics sorted by descending count.
	Predicates []PredicateStat
	// Span covers all validity intervals in the store.
	Span temporal.Interval
	// MeanConfidence is the global average confidence.
	MeanConfidence float64
	// Memory estimates the store's resident footprint.
	Memory MemoryStats
}

// mapEntryOverhead approximates Go's per-entry map cost beyond the key
// and value payload (bucket headers, tophash bytes, load-factor slack).
const mapEntryOverhead = 16

// sliceHeaderBytes is the cost of a slice header (ptr, len, cap).
const sliceHeaderBytes = 24

// MemoryStats estimates the store's resident footprint. It is O(terms +
// predicates), independent of the fact count, so it is cheap enough to
// serve from a live session's stats endpoint.
func (st *Store) MemoryStats() MemoryStats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.memoryLocked()
}

func (st *Store) memoryLocked() MemoryStats {
	m := MemoryStats{Terms: st.dict.Len()}

	// Fact table, change log, revive history.
	m.FactBytes = int64(cap(st.facts))*int64(unsafe.Sizeof(fact{})) +
		int64(cap(st.log))*int64(unsafe.Sizeof(Change{})) +
		int64(cap(st.history))*int64(unsafe.Sizeof(factSpan{}))

	// Posting indexes.
	idBytes := int64(unsafe.Sizeof(FactID(0)))
	postings := func(idx [][]FactID) (b int64) {
		b = int64(cap(idx)) * sliceHeaderBytes
		for _, ids := range idx {
			b += int64(cap(ids)) * idBytes
		}
		return b
	}
	m.PostingBytes = postings(st.byS) + postings(st.byP) + postings(st.byO)
	m.PostingBytes += int64(len(st.byFact))*(8+idBytes+mapEntryOverhead) +
		int64(cap(st.byFactSpill))*idBytes

	// Interning dictionary: the hash→id forward map, the code-indexed
	// term slice, and the string payloads (counted once — the forward
	// direction holds no term copies).
	termStruct := int64(unsafe.Sizeof(rdf.Term{}))
	m.DictBytes = int64(len(st.dict.byHash))*(8+idBytes+mapEntryOverhead) +
		int64(cap(st.dict.spill))*idBytes +
		int64(cap(st.dict.toT))*termStruct
	for _, t := range st.dict.toT[1:] {
		m.DictBytes += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
	}

	m.TotalBytes = m.FactBytes + m.PostingBytes + m.DictBytes
	if n := len(st.facts); n > 0 {
		m.BytesPerFact = float64(m.TotalBytes) / float64(n)
	}
	return m
}

// Stats computes summary statistics over the live facts of the store.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	live := len(st.facts) - st.dead
	out := Stats{Facts: live, Terms: st.dict.Len(), Memory: st.memoryLocked()}
	if live == 0 {
		return out
	}
	var confSum float64
	first := true
	var span temporal.Interval
	for _, f := range st.facts {
		if f.removedAt != 0 {
			continue
		}
		confSum += f.conf
		if first {
			span, first = f.iv, false
		} else {
			span = span.Span(f.iv)
		}
	}
	out.Span = span
	out.MeanConfidence = confSum / float64(live)

	// The dense index walks predicate ids in ascending order.
	for p := range st.byP {
		ids := st.liveOnlyLocked(st.byP[p])
		if len(ids) == 0 {
			continue
		}
		p := TermID(p)
		ps := PredicateStat{Predicate: st.dict.Decode(p).Value, Count: len(ids)}
		subjects := make(map[TermID]struct{})
		var cs float64
		pspan := st.facts[ids[0]].iv
		for _, id := range ids {
			f := st.facts[id]
			cs += f.conf
			pspan = pspan.Span(f.iv)
			subjects[f.s] = struct{}{}
		}
		ps.Span = pspan
		ps.MeanConfidence = cs / float64(len(ids))
		ps.Subjects = len(subjects)
		out.Predicates = append(out.Predicates, ps)
	}
	sort.Slice(out.Predicates, func(i, j int) bool {
		if out.Predicates[i].Count != out.Predicates[j].Count {
			return out.Predicates[i].Count > out.Predicates[j].Count
		}
		return out.Predicates[i].Predicate < out.Predicates[j].Predicate
	})
	return out
}
