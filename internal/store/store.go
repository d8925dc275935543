// Package store implements the storage substrate of TeCoRe: an in-memory,
// dictionary-encoded temporal quad store with posting indexes on term
// positions, the code-pattern matcher the grounding engine joins against,
// dataset statistics, and a binary snapshot format for persistence.
//
// In the original system this role is played by a relational backend
// (MySQL or H2) that the solvers query for evidence; the store offers the
// access path grounding needs — lookups by any combination of bound
// subject, predicate and object, optionally restricted to one exact
// interval — with index-backed complexity.
//
// # Versioning model
//
// The store is epoch-versioned: every successful mutation (Add, Remove,
// a confidence raise, a revival) advances a monotonic Epoch and appends
// to a change log. Facts are never physically deleted — Remove tombstones
// the fact, keeping its FactID stable — so DeltaSince(epoch) can report
// the net adds, removes and updates between any past epoch and now; the
// incremental solve pipeline consumes exactly that delta. Views pin the
// epoch at creation and read a consistent snapshot while writers proceed:
// all access paths are guarded by a reader/writer lock, and no lock is
// held across user callbacks, so concurrent MatchCodes during Add/Remove
// is safe (and race-detector clean).
//
// # One term dictionary
//
// The store's dictionary is also the grounder's code space: ground atoms
// key into its codes, the grounder's derived-fact store holds facts in
// them (AddCodes/RemoveCodes) and its own dictionary stays empty, and a
// rule head's constants are interned into it (InternTerm) when the rule
// is compiled, so the dictionary can hold terms no fact uses. Every write
// to the dictionary holds the write lock; Terms hands out a frozen prefix
// that readers decode through without it.
package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// FactID identifies a fact within a Store. IDs are dense, start at 0 and
// are stable for the lifetime of the store: facts are never physically
// deleted, Remove tombstones them in place and a later re-Add revives
// the same id.
type FactID int32

// Epoch is a monotonically increasing store version. Epoch 0 is the
// empty store; every successful mutation advances it by one.
type Epoch uint64

// Op discriminates change-log entries.
type Op uint8

const (
	// OpAdd records a fact becoming (or staying) live: a fresh insert, a
	// revival of a tombstoned fact, or a confidence raise.
	OpAdd Op = iota
	// OpRemove records a fact being tombstoned.
	OpRemove
)

// Change is one change-log entry.
type Change struct {
	Epoch Epoch
	Op    Op
	ID    FactID
}

// Delta is the net difference between a past epoch and the current
// state, as reported by DeltaSince. Each id appears in at most one list;
// ids are sorted ascending.
type Delta struct {
	// Added holds facts live now that were not live at the base epoch.
	Added []FactID
	// Removed holds facts live at the base epoch that are tombstoned now.
	Removed []FactID
	// Updated holds facts live at both points whose confidence changed
	// in between (including remove-then-revive sequences). Queries below
	// the compaction floor conservatively include every fact live at
	// both points.
	Updated []FactID
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Updated) == 0
}

// fact is the dictionary-encoded representation of a quad plus its
// lifespan. addedAt/removedAt bound the current live span; removedAt 0
// means live. Prior spans of revived facts live in Store.history.
type fact struct {
	s, p, o   TermID
	iv        temporal.Interval
	conf      float64
	addedAt   Epoch
	removedAt Epoch
}

type lifespan struct{ addedAt, removedAt Epoch }

// Store is an indexed, dictionary-encoded collection of uncertain
// temporal facts. All methods are safe for concurrent use: readers take
// a shared lock, mutators an exclusive one, and no lock is held across
// user callbacks.
type Store struct {
	mu    sync.RWMutex
	dict  *Dict
	facts []fact
	dead  int // tombstoned fact count
	epoch Epoch
	log   []Change
	// compacted is the epoch the change log was truncated up to; delta
	// queries below it use the full-scan path.
	compacted Epoch
	// history holds the prior live spans of revived facts (empty until
	// the first revival), so liveAt stays answerable for any epoch. It is
	// sorted by fact id, one fact's spans adjacent and oldest-first;
	// revival is rare enough that the O(n) ordered insert never shows.
	history []factSpan

	// Posting indexes from bound positions to fact ids: dense slices
	// indexed by TermID (the dictionary hands out dense monotonic codes,
	// so a slice replaces the hash map without waste). Entries are
	// append-only and include tombstoned facts; liveness is checked at
	// visit time. Every list is in ascending fact-id order. Patterns
	// binding two or three positions scan the shortest applicable list
	// with a residual filter on the remaining positions — at two 4-byte
	// ids per fact these three indexes cost a fraction of the five maps
	// (including (s,p)/(p,o) pair maps) they replaced. The lists' lengths
	// (View.PostingLen) are the grounder's join-planning input.
	byS [][]FactID
	byP [][]FactID
	byO [][]FactID

	// byFact detects duplicate temporal statements (same s,p,o,interval)
	// by 64-bit key hash; the rare colliding ids (different key, same
	// hash) spill into byFactSpill and are found by linear scan. Hash
	// hits are always verified against the fact table, so collisions
	// cost time, never correctness.
	byFact      map[uint64]FactID
	byFactSpill []FactID

	// journal, when set, receives every change-log append under the write
	// lock; compactFloor, when set, clamps CompactLog so truncation never
	// outruns the journal's durable tail. See journal.go.
	journal      Journal
	compactFloor func() Epoch
}

type factKey struct {
	s, p, o TermID
	iv      temporal.Interval
}

// factSpan is one prior live span of a revived fact.
type factSpan struct {
	id FactID
	ls lifespan
}

// mix64 is SplitMix64's finalizer, the avalanche stage hashing fact
// keys. Deterministic across processes, unlike runtime map hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (k factKey) hash() uint64 {
	h := mix64(uint64(k.s)<<32 | uint64(k.p))
	h = mix64(h ^ uint64(k.o))
	h = mix64(h ^ uint64(k.iv.Start))
	return mix64(h ^ uint64(k.iv.End))
}

// keyOfLocked rebuilds the dedup key of an existing fact.
func (st *Store) keyOfLocked(id FactID) factKey {
	f := &st.facts[id]
	return factKey{s: f.s, p: f.p, o: f.o, iv: f.iv}
}

// lookupFactLocked finds the fact with exactly this key, checking the
// hash slot first and the collision spill after.
func (st *Store) lookupFactLocked(k factKey) (FactID, bool) {
	if id, ok := st.byFact[k.hash()]; ok {
		if st.keyOfLocked(id) == k {
			return id, true
		}
		for _, id := range st.byFactSpill {
			if st.keyOfLocked(id) == k {
				return id, true
			}
		}
	}
	return 0, false
}

// insertFactLocked records a new fact's key in the dedup index.
func (st *Store) insertFactLocked(k factKey, id FactID) {
	h := k.hash()
	if _, ok := st.byFact[h]; ok {
		st.byFactSpill = append(st.byFactSpill, id)
		return
	}
	st.byFact[h] = id
}

// posting returns the list for term t in a dense index; nil when t is
// beyond the index (interned but never seen in that position).
func posting(idx [][]FactID, t TermID) []FactID {
	if int(t) < len(idx) {
		return idx[t]
	}
	return nil
}

// addPosting appends id to t's posting list, growing the dense index to
// cover t.
func addPosting(idx *[][]FactID, t TermID, id FactID) {
	if n := int(t) + 1; n > len(*idx) {
		if n <= cap(*idx) {
			*idx = (*idx)[:n]
		} else {
			grown := make([][]FactID, n, n+n/2+8)
			copy(grown, *idx)
			*idx = grown
		}
	}
	(*idx)[t] = append((*idx)[t], id)
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict:   newDict(),
		byFact: make(map[uint64]FactID),
	}
}

// Add inserts a quad and returns its fact id. Re-adding an existing live
// temporal statement (same subject, predicate, object and interval)
// keeps the higher confidence and returns the original id — the standard
// deduplication rule when merging extraction runs. Re-adding a
// tombstoned statement revives it under its original id with the new
// confidence. Every effective mutation advances the epoch.
func (st *Store) Add(q rdf.Quad) (FactID, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	k := factKey{
		s:  st.dict.Encode(q.Subject),
		p:  st.dict.Encode(q.Predicate),
		o:  st.dict.Encode(q.Object),
		iv: q.Interval,
	}
	return st.addLocked(k, q.Confidence, &q), nil
}

// AddCodes is Add for a statement given as term codes, with no
// validation and no journal record. The codes need not come from this
// store's dictionary: the grounder's derived store holds its facts in
// the evidence store's code space and leaves its own dictionary empty,
// so its facts decode through the evidence store's Terms, not Fact.
func (st *Store) AddCodes(s, p, o TermID, iv temporal.Interval, conf float64) FactID {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addLocked(factKey{s: s, p: p, o: o, iv: iv}, conf, nil)
}

// addLocked is the body of Add and AddCodes. q is the quad a journal
// replays, nil for a code-only add, which is not journaled.
func (st *Store) addLocked(key factKey, conf float64, q *rdf.Quad) FactID {
	if id, ok := st.lookupFactLocked(key); ok {
		old := &st.facts[id]
		if old.removedAt != 0 {
			// Revive: the tombstoned assertion returns with the new
			// confidence; the prior live span moves to the history,
			// inserted after any earlier spans of the same fact.
			i := sort.Search(len(st.history), func(i int) bool { return st.history[i].id > id })
			st.history = append(st.history, factSpan{})
			copy(st.history[i+1:], st.history[i:])
			st.history[i] = factSpan{id: id, ls: lifespan{old.addedAt, old.removedAt}}
			st.epoch++
			old.addedAt, old.removedAt = st.epoch, 0
			old.conf = conf
			st.dead--
			st.logLocked(Change{Epoch: st.epoch, Op: OpAdd, ID: id}, q)
			return id
		}
		if conf > old.conf {
			old.conf = conf
			st.epoch++
			st.logLocked(Change{Epoch: st.epoch, Op: OpAdd, ID: id}, q)
		}
		return id
	}
	st.epoch++
	f := fact{s: key.s, p: key.p, o: key.o, iv: key.iv, conf: conf, addedAt: st.epoch}
	id := FactID(len(st.facts))
	st.facts = append(st.facts, f)
	st.insertFactLocked(key, id)
	addPosting(&st.byS, f.s, id)
	addPosting(&st.byP, f.p, id)
	addPosting(&st.byO, f.o, id)
	st.logLocked(Change{Epoch: st.epoch, Op: OpAdd, ID: id}, q)
	return id
}

// Remove tombstones the exact temporal statement (matched on subject,
// predicate, object and interval; the confidence is ignored). It returns
// the fact's id and whether a live fact was removed. The id stays valid:
// indexes keep the entry and a later Add revives it.
func (st *Store) Remove(q rdf.Quad) (FactID, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok1 := st.dict.Lookup(q.Subject)
	p, ok2 := st.dict.Lookup(q.Predicate)
	o, ok3 := st.dict.Lookup(q.Object)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	return st.removeLocked(factKey{s: s, p: p, o: o, iv: q.Interval}, &rdf.Quad{})
}

// RemoveCodes is Remove for a statement given as term codes (see
// AddCodes); it writes no journal record.
func (st *Store) RemoveCodes(s, p, o TermID, iv temporal.Interval) (FactID, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.removeLocked(factKey{s: s, p: p, o: o, iv: iv}, nil)
}

// removeLocked is the body of Remove and RemoveCodes; q is the journal
// payload (zero for a remove), nil for a code-only remove.
func (st *Store) removeLocked(k factKey, q *rdf.Quad) (FactID, bool) {
	id, ok := st.lookupFactLocked(k)
	if !ok || st.facts[id].removedAt != 0 {
		return 0, false
	}
	st.tombstoneLocked(id, q)
	return id, true
}

// RemoveID tombstones the fact with the given id, reporting whether it
// was live.
func (st *Store) RemoveID(id FactID) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if int(id) >= len(st.facts) || st.facts[id].removedAt != 0 {
		return false
	}
	st.tombstoneLocked(id, &rdf.Quad{})
	return true
}

func (st *Store) tombstoneLocked(id FactID, q *rdf.Quad) {
	st.epoch++
	st.facts[id].removedAt = st.epoch
	st.dead++
	st.logLocked(Change{Epoch: st.epoch, Op: OpRemove, ID: id}, q)
}

// AddGraph inserts every quad of the graph, reporting the first error.
func (st *Store) AddGraph(g rdf.Graph) error {
	for i, q := range g {
		if _, err := st.Add(q); err != nil {
			return fmt.Errorf("store: quad %d: %w", i, err)
		}
	}
	return nil
}

// Epoch returns the current store version.
func (st *Store) Epoch() Epoch {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.epoch
}

// CompactedEpoch returns the change-log compaction floor: the epoch
// CompactLog last truncated up to (after any registered clamp).
func (st *Store) CompactedEpoch() Epoch {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.compacted
}

// DeltaSince reports the net change between epoch e and the current
// state. A fact removed and re-added since e shows up as Updated; a fact
// added and removed again shows up nowhere.
//
// For epochs at or after the compaction floor (see CompactLog) the
// answer comes from the change log in O(changes); for older epochs it
// falls back to a full scan over the fact table, which stays correct —
// lifespans are never compacted — but conservatively reports every fact
// live at both points as Updated.
func (st *Store) DeltaSince(e Epoch) Delta {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var d Delta
	if e >= st.epoch {
		return d
	}
	if e < st.compacted {
		// Full scan: every fact live at both points is conservatively
		// reported as Updated (the log that would distinguish real
		// confidence changes is gone).
		for id := range st.facts {
			classifyDelta(&d, st, FactID(id), e)
		}
		return d // fact-id order is already sorted
	}
	// Log epochs are strictly increasing; binary search the first entry
	// after e.
	i := sort.Search(len(st.log), func(i int) bool { return st.log[i].Epoch > e })
	if i == len(st.log) {
		return d
	}
	// Dedup by sorting the touched ids instead of a per-call hash set;
	// classification then emits every bucket already in ascending id
	// order, so the single-fact update path costs one small allocation.
	ids := make([]FactID, 0, len(st.log)-i)
	for _, ch := range st.log[i:] {
		ids = append(ids, ch.ID)
	}
	sortIDs(ids)
	prev := FactID(-1)
	for _, id := range ids {
		if id == prev {
			continue
		}
		prev = id
		classifyDelta(&d, st, id, e)
	}
	return d
}

// classifyDelta appends fact id to the delta bucket its liveness
// transition between epoch e and now selects.
func classifyDelta(d *Delta, st *Store, id FactID, e Epoch) {
	was := st.liveAtLocked(id, e)
	is := st.facts[id].removedAt == 0
	switch {
	case !was && is:
		d.Added = append(d.Added, id)
	case was && !is:
		d.Removed = append(d.Removed, id)
	case was && is:
		d.Updated = append(d.Updated, id)
	}
}

// CompactLog drops change-log entries — and revive-history lifespans —
// at or below epoch upTo, bounding the store's bookkeeping on
// long-lived streaming sessions (a fact toggled N times otherwise keeps
// N lifespans forever). DeltaSince queries from upTo onward remain
// exact: the log still covers them, and pruned lifespans all ended
// before upTo so they can never satisfy a liveAt check there. Queries
// below upTo fall back to the full scan and become approximate — facts
// whose only presence at the queried epoch was a pruned lifespan are
// misclassified — so compact only past epochs no consumer will revisit.
//
// When a compaction floor is registered (SetCompactFloor), upTo is
// additionally clamped to it, so a durable journal's un-synced tail is
// always still covered by the in-memory log.
func (st *Store) CompactLog(upTo Epoch) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.compactFloor != nil {
		if fl := st.compactFloor(); upTo > fl {
			upTo = fl
		}
	}
	if upTo <= st.compacted {
		return
	}
	i := sort.Search(len(st.log), func(i int) bool { return st.log[i].Epoch > upTo })
	if i > 0 {
		st.log = append(st.log[:0:0], st.log[i:]...)
	}
	kept := st.history[:0]
	for _, sp := range st.history {
		if sp.ls.removedAt > upTo {
			kept = append(kept, sp)
		}
	}
	st.history = kept
	st.compacted = upTo
}

func sortIDs(ids []FactID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// liveAtLocked reports whether fact id was live at epoch e.
func (st *Store) liveAtLocked(id FactID, e Epoch) bool {
	f := &st.facts[id]
	if f.addedAt <= e {
		return f.removedAt == 0 || f.removedAt > e
	}
	for i := sort.Search(len(st.history), func(i int) bool {
		return st.history[i].id >= id
	}); i < len(st.history) && st.history[i].id == id; i++ {
		if ls := st.history[i].ls; ls.addedAt <= e && ls.removedAt > e {
			return true
		}
	}
	return false
}

// Len returns the number of live facts.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.facts) - st.dead
}

// IDBound returns the exclusive upper bound of assigned fact ids,
// including tombstoned facts. Iterate [0, IDBound) with Live to visit
// the dense id space.
func (st *Store) IDBound() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.facts)
}

// Live reports whether the fact id is currently live (not tombstoned).
func (st *Store) Live(id FactID) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return int(id) < len(st.facts) && st.facts[id].removedAt == 0
}

// InternTerm returns the term's dictionary code, assigning a fresh one
// on first sight, under the write lock. The grounder interns its rule
// heads' constants here, so every ground atom keys into this one code
// space; such a term stays in the dictionary (and in checkpoints) even
// when no fact uses it.
func (st *Store) InternTerm(t rdf.Term) TermID {
	if id, ok := st.TermCode(t); ok {
		return id
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dict.Encode(t)
}

// TermCode returns the term's dictionary code without interning it; ok
// is false when the term has never been interned.
func (st *Store) TermCode(t rdf.Term) (TermID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.dict.Lookup(t)
}

// Terms returns the code-indexed term slice (index 0 unused). The slice
// is a frozen prefix of the dictionary: its entries are immutable and it
// may be read without the lock while the dictionary grows.
func (st *Store) Terms() []rdf.Term {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.dict.Terms()
}

// Fact decodes the quad with the given id (live or tombstoned).
func (st *Store) Fact(id FactID) rdf.Quad {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.decodeLocked(st.facts[id])
}

func (st *Store) decodeLocked(f fact) rdf.Quad {
	return rdf.Quad{
		Subject:    st.dict.Decode(f.s),
		Predicate:  st.dict.Decode(f.p),
		Object:     st.dict.Decode(f.o),
		Interval:   f.iv,
		Confidence: f.conf,
	}
}

// Interval returns the validity interval of a fact without decoding.
func (st *Store) Interval(id FactID) temporal.Interval {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.facts[id].iv
}

// EncodedTriple returns the dictionary codes of a fact's terms.
func (st *Store) EncodedTriple(id FactID) (s, p, o TermID) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	f := st.facts[id]
	return f.s, f.p, f.o
}

// Contains reports whether the exact temporal statement is currently
// live.
func (st *Store) Contains(q rdf.Quad) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok1 := st.dict.Lookup(q.Subject)
	p, ok2 := st.dict.Lookup(q.Predicate)
	o, ok3 := st.dict.Lookup(q.Object)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	id, ok := st.lookupFactLocked(factKey{s: s, p: p, o: o, iv: q.Interval})
	return ok && st.facts[id].removedAt == 0
}

// Graph materialises the live facts as a Graph in fact-id order.
func (st *Store) Graph() rdf.Graph {
	st.mu.RLock()
	defer st.mu.RUnlock()
	g := make(rdf.Graph, 0, len(st.facts)-st.dead)
	for _, f := range st.facts {
		if f.removedAt != 0 {
			continue
		}
		g = append(g, st.decodeLocked(f))
	}
	return g
}

// TimeFilter restricts pattern matches temporally: every interval (the
// zero value), exactly one, or those in a set of Allen relations to a
// reference interval.
type TimeFilter struct {
	// Kind selects the temporal predicate; TimeAny matches everything.
	Kind TimeFilterKind
	// Interval is the interval TimeEquals matches, and the reference
	// interval TimeAllen relates each candidate to.
	Interval temporal.Interval
	// Rels is the relation set TimeAllen admits.
	Rels temporal.RelationSet
}

// TimeFilterKind enumerates the temporal filters the grounder issues.
type TimeFilterKind uint8

const (
	// TimeAny matches every fact.
	TimeAny TimeFilterKind = iota
	// TimeEquals matches facts whose interval equals the query interval.
	TimeEquals
	// TimeAllen matches facts whose interval iv stands in one of Rels to
	// the query interval: Rels.Has(RelationBetween(Interval, iv)). The
	// grounder pushes a rule's Allen condition into the match this way,
	// so a candidate that cannot satisfy it is never buffered.
	TimeAllen
)

func (tf TimeFilter) admits(iv temporal.Interval) bool {
	switch tf.Kind {
	case TimeAny:
		return true
	case TimeEquals:
		return iv == tf.Interval
	case TimeAllen:
		return tf.Rels.Has(temporal.RelationBetween(tf.Interval, iv))
	default:
		return false
	}
}

// CodePattern is a quad pattern in dictionary-code space: bound positions
// carry TermIDs (NoTerm = wildcard) plus a temporal filter. The grounder
// builds these from pre-resolved codes, so matching does no dictionary
// lookups at all. Bound codes must come from this store's dictionary; a
// term known to be absent has no matches and is the caller's job to
// short-circuit (NoTerm always means wildcard, never "unknown term").
type CodePattern struct {
	S, P, O TermID
	Time    TimeFilter
}

// residual is the set of bound positions the chosen candidate index
// does not cover; NoTerm fields are already satisfied by the index.
// A plain struct rather than a filter closure keeps the hot MatchCodes path
// allocation-free.
type residual struct {
	s, p, o TermID
}

func (r residual) admits(f fact) bool {
	return (r.s == NoTerm || f.s == r.s) &&
		(r.p == NoTerm || f.p == r.p) &&
		(r.o == NoTerm || f.o == r.o)
}

// forCandidatesCodesLocked drives fn over the facts matching cp that were
// live at epoch e, using the most selective index. The time filter is
// tested here, before fn sees the fact, so MatchCodes buffers only facts
// it admits. Callers must hold at least a read lock; fn must not call
// back into the store.
func (st *Store) forCandidatesCodesLocked(cp CodePattern, e Epoch, fn func(FactID, fact) bool) {
	ids, res, scanAll := st.candidatesCodes(cp)
	visit := func(id FactID) bool {
		f := st.facts[id]
		if !st.liveAtLocked(id, e) {
			return true
		}
		if !res.admits(f) {
			return true
		}
		if !cp.Time.admits(f.iv) {
			return true
		}
		return fn(id, f)
	}
	if scanAll {
		for i := range st.facts {
			if !visit(FactID(i)) {
				return
			}
		}
		return
	}
	for _, id := range ids {
		if !visit(id) {
			return
		}
	}
}

// candidatesCodes picks the most selective index for the bound positions
// and returns the candidate id list plus the residual positions the
// chosen index does not cover. scanAll signals the unindexed full-store
// scan so callers can iterate without materialising ids.
func (st *Store) candidatesCodes(cp CodePattern) (ids []FactID, res residual, scanAll bool) {
	sID, pID, oID := cp.S, cp.P, cp.O

	// Multi-bound patterns scan the shortest applicable posting list and
	// filter the remaining positions residually. Every posting list is in
	// ascending fact-id order, so which list serves a pattern never
	// changes the visit order — the determinism contracts downstream
	// depend on that.
	switch {
	case sID != NoTerm && pID != NoTerm && oID != NoTerm:
		s, o := posting(st.byS, sID), posting(st.byO, oID)
		if len(s) <= len(o) {
			return s, residual{p: pID, o: oID}, false
		}
		return o, residual{s: sID, p: pID}, false
	case sID != NoTerm && pID != NoTerm:
		return posting(st.byS, sID), residual{p: pID}, false
	case pID != NoTerm && oID != NoTerm:
		// Object lists are near-universally shorter than predicate lists.
		return posting(st.byO, oID), residual{p: pID}, false
	case sID != NoTerm && oID != NoTerm:
		s, o := posting(st.byS, sID), posting(st.byO, oID)
		if len(s) <= len(o) {
			return s, residual{o: oID}, false
		}
		return o, residual{s: sID}, false
	case sID != NoTerm:
		return posting(st.byS, sID), residual{}, false
	case oID != NoTerm:
		return posting(st.byO, oID), residual{}, false
	case pID != NoTerm:
		return posting(st.byP, pID), residual{}, false
	default:
		return nil, residual{}, true
	}
}

// PredicateIDs returns the distinct predicate codes with at least one
// live fact.
func (st *Store) PredicateIDs() []TermID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []TermID
	// The dense index walks term ids in ascending order — already sorted.
	for p, ids := range st.byP {
		if len(ids) == 0 {
			continue
		}
		if st.dead == 0 {
			out = append(out, TermID(p))
			continue
		}
		for _, id := range ids {
			if st.facts[id].removedAt == 0 {
				out = append(out, TermID(p))
				break
			}
		}
	}
	return out
}

// PredicateFacts returns the ids of all live facts with the given
// predicate code. The returned slice must not be modified.
func (st *Store) PredicateFacts(p TermID) []FactID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.liveOnlyLocked(posting(st.byP, p))
}

// liveOnlyLocked filters tombstoned ids out of an index slice, returning
// the slice unchanged when the store has no tombstones.
func (st *Store) liveOnlyLocked(ids []FactID) []FactID {
	if st.dead == 0 {
		return ids
	}
	out := make([]FactID, 0, len(ids))
	for _, id := range ids {
		if st.facts[id].removedAt == 0 {
			out = append(out, id)
		}
	}
	return out
}
