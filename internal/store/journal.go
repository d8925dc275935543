package store

import "repro/internal/rdf"

// JournalRecord is one change-log entry together with the payload a
// durable log needs to replay it. For OpAdd the Quad carries the full
// statement as handed to Add — covering a fresh insert, a revival and a
// confidence raise alike, since replaying Add with that quad reproduces
// each case exactly. For OpRemove the Quad is zero; the FactID alone
// identifies the tombstoned fact.
type JournalRecord struct {
	Change Change
	Quad   rdf.Quad
}

// Journal is an optional durable sink for the store's change log. Append
// is invoked synchronously under the store's exclusive write lock, once
// per epoch advance and in epoch order, so a journal sees exactly the
// sequence the in-memory log records. Implementations must be fast —
// buffer the record and return; durability (flush, fsync) belongs to
// explicit sync points outside the lock. Append must not call back into
// the store.
type Journal interface {
	Append(JournalRecord)
}

// SetJournal installs (or, with nil, detaches) the journal sink. Changes
// made while no journal is attached are not replayable from the journal;
// callers attaching a journal to a non-empty store must first capture a
// snapshot at the current epoch (see Checkpoint) so the journal only
// needs to cover the suffix.
func (st *Store) SetJournal(j Journal) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.journal = j
}

// SetCompactFloor registers a hook consulted by CompactLog: when set,
// log truncation is clamped to at most the returned epoch. A durable
// journal registers its last-synced epoch here so the in-memory change
// log — the only replay source for re-journaling after a journal error —
// is never truncated past what has actually reached stable storage.
// Pass nil to remove the clamp.
func (st *Store) SetCompactFloor(fn func() Epoch) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.compactFloor = fn
}

// logLocked appends a change to the change log and forwards it to the
// attached journal. Callers hold the write lock and pass the same quad
// Add received (zero for removes), or nil for a code-only change, which
// no journal can replay and none is sent.
func (st *Store) logLocked(ch Change, q *rdf.Quad) {
	st.log = append(st.log, ch)
	if st.journal != nil && q != nil {
		st.journal.Append(JournalRecord{Change: ch, Quad: *q})
	}
}
