// Package wal gives the epoch-versioned store durability: an append-only
// write-ahead log of the change log plus periodic snapshot compaction,
// so a restarted session replays to its previous epoch instead of
// re-ingesting and cold-solving from nothing.
//
// A store directory holds
//
//	snapshot.tqs     TQS2 snapshot at some epoch watermark (atomic rename)
//	wal-<seq>.log    change-log segments appended after the watermark
//
// The write path follows the SSD guidance from the paper set: records
// are buffered and written in large sequential appends, fsync happens at
// explicit points (Sync, Checkpoint, Close) rather than per record, and
// compaction is explicit — Checkpoint rotates to a fresh segment,
// snapshots the store at a pinned epoch without stalling writers, and
// deletes every sealed segment the snapshot now covers.
//
// Recovery (Open) loads the snapshot, replays every segment record above
// the watermark in epoch order — verifying per-record CRCs, epoch
// contiguity and that each replayed mutation reproduces the recorded
// FactID and epoch — and truncates the log at the first torn or
// corrupted record, so a crash mid-write costs exactly the un-synced
// tail. FactIDs are stable across a snapshot/replay round trip, which
// keeps tombstone/revival identity — and every FactID-ordered
// determinism contract downstream — intact after a restart.
package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/store"
)

// SnapshotFile is the name of the snapshot within a store directory.
const SnapshotFile = "snapshot.tqs"

const segPrefix = "wal-"

// flushBytes is the buffered-append threshold: once the in-memory tail
// reaches it, the buffer is written (not fsynced) to the segment.
const flushBytes = 1 << 20

// Options configures nothing; kept only until bench/ can be edited.
type Options struct{}

// RecoveryStats reports what Open found and did.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot was present; Watermark
	// is its epoch (0 without one).
	SnapshotLoaded bool        `json:"snapshot_loaded"`
	Watermark      store.Epoch `json:"watermark"`
	// ReplayedRecords/ReplayedBytes count the WAL records applied above
	// the watermark; SkippedRecords the valid records at or below it
	// (already covered by the snapshot).
	ReplayedRecords int   `json:"replayed_records"`
	ReplayedBytes   int64 `json:"replayed_bytes"`
	SkippedRecords  int   `json:"skipped_records"`
	// TruncatedBytes is the torn/corrupt tail dropped at the first
	// invalid record, if any.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Epoch is the store epoch after replay.
	Epoch store.Epoch `json:"epoch"`
}

// Log is the durable journal of one store. It implements store.Journal:
// once attached (Open does this), every mutation's change-log append is
// mirrored into the log buffer under the store's write lock, and reaches
// disk at the next flush point.
//
// Lock order: Log methods never touch the store while holding the
// internal mutex (Append arrives already holding the store's write
// lock), so journaled writers and concurrent Flush/Sync/Checkpoint
// cannot deadlock.
type Log struct {
	dir   string
	st    *store.Store
	stats RecoveryStats

	mu      sync.Mutex
	f       *os.File
	seq     uint64
	buf     []byte
	scratch []byte
	// lastEpoch is the newest buffered record; writtenEpoch the newest
	// written to the OS; durableEpoch the newest fsynced; snapEpoch the
	// durable snapshot's watermark.
	lastEpoch    store.Epoch
	writtenEpoch store.Epoch
	durableEpoch store.Epoch
	snapEpoch    store.Epoch
	err          error // first write error; the log is wedged after it
	closed       bool

	// ckptMu serializes checkpoints (each spans several mu sections).
	ckptMu sync.Mutex
}

// Open recovers the store persisted in dir — creating an empty one on
// first use — and returns the attached log. The returned store has the
// log installed as its journal and its compaction floor, so the caller
// mutates the store normally and calls Sync/Checkpoint for durability.
func Open(dir string, _ Options) (*Log, *store.Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir}
	// A crash between snapshot write and rename leaves a .tmp; it is
	// unreferenced, drop it.
	os.Remove(filepath.Join(dir, SnapshotFile+".tmp"))

	st, watermark, loaded, err := loadSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	l.st = st
	l.stats.SnapshotLoaded = loaded
	l.stats.Watermark = watermark
	l.snapEpoch = watermark

	seqs, err := segmentSeqs(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := l.replay(seqs, watermark); err != nil {
		return nil, nil, err
	}
	l.stats.Epoch = st.Epoch()
	l.lastEpoch = l.stats.Epoch
	l.writtenEpoch = l.stats.Epoch
	l.durableEpoch = l.stats.Epoch

	// Appends always go to a fresh segment: sealed segments are never
	// reopened, so a past truncation can't interleave with new writes.
	l.seq = 1
	if n := len(seqs); n > 0 {
		l.seq = seqs[n-1] + 1
	}
	f, err := os.OpenFile(l.segPath(l.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	st.SetJournal(l)
	st.SetCompactFloor(l.DurableEpoch)
	return l, st, nil
}

// Attach makes an existing in-memory store durable in a fresh
// directory: it writes an initial snapshot at the store's current epoch
// and installs the log as the store's journal, so every later mutation
// is captured. The directory must not already hold a persisted store
// (recover that with Open instead), and the caller must not mutate the
// store concurrently with Attach — changes made before the journal is
// installed exist only in the snapshot.
func Attach(dir string, st *store.Store, _ Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err == nil {
		return nil, fmt.Errorf("wal: %s already holds a persisted store", dir)
	}
	if seqs, err := segmentSeqs(dir); err != nil {
		return nil, err
	} else if len(seqs) > 0 {
		return nil, fmt.Errorf("wal: %s already holds log segments", dir)
	}
	l := &Log{dir: dir, st: st, seq: 1}
	f, err := os.OpenFile(l.segPath(l.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	sn := st.Checkpoint()
	if err := l.writeSnapshot(sn); err != nil {
		f.Close()
		return nil, err
	}
	l.snapEpoch = sn.Epoch()
	l.lastEpoch = sn.Epoch()
	l.writtenEpoch = sn.Epoch()
	l.durableEpoch = sn.Epoch()
	l.stats = RecoveryStats{SnapshotLoaded: false, Watermark: sn.Epoch(), Epoch: sn.Epoch()}
	st.SetJournal(l)
	st.SetCompactFloor(l.DurableEpoch)
	return l, nil
}

func loadSnapshot(dir string) (*store.Store, store.Epoch, bool, error) {
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		return store.New(), 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := store.Load(f)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	return st, st.Epoch(), true, nil
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d.log", segPrefix, seq))
}

// segmentSeqs lists the segment sequence numbers in dir, ascending.
func segmentSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, segPrefix+"%d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replay applies every segment record above the watermark, verifying
// epoch contiguity and that each mutation reproduces the recorded id
// and epoch. The first torn record truncates its segment and deletes
// every later segment: the durable log is the longest valid prefix.
func (l *Log) replay(seqs []uint64, watermark store.Epoch) error {
	var lastSeen store.Epoch // newest record epoch seen, 0 before any
	for i, seq := range seqs {
		path := l.segPath(seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		off := 0
		for off < len(data) {
			rec, n, err := decodeRecord(data[off:])
			if err != nil {
				return l.truncateTail(seqs[i:], path, data, off)
			}
			e := rec.Change.Epoch
			if lastSeen != 0 && e != lastSeen+1 {
				return fmt.Errorf("wal: %s: epoch %d follows %d (log gap)", filepath.Base(path), e, lastSeen)
			}
			lastSeen = e
			if e > watermark {
				if err := l.apply(rec); err != nil {
					return fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
				}
				l.stats.ReplayedRecords++
				l.stats.ReplayedBytes += int64(n)
			} else {
				l.stats.SkippedRecords++
			}
			off += n
		}
	}
	return nil
}

// truncateTail cuts the torn segment at the end of its valid prefix and
// removes every later segment (unreachable once the epoch chain is cut).
func (l *Log) truncateTail(tail []uint64, path string, data []byte, off int) error {
	l.stats.TruncatedBytes = int64(len(data) - off)
	if err := os.Truncate(path, int64(off)); err != nil {
		return fmt.Errorf("wal: truncating torn log: %w", err)
	}
	for _, seq := range tail[1:] {
		stale := l.segPath(seq)
		if fi, err := os.Stat(stale); err == nil {
			l.stats.TruncatedBytes += fi.Size()
		}
		if err := os.Remove(stale); err != nil {
			return fmt.Errorf("wal: removing stale segment: %w", err)
		}
	}
	return nil
}

// apply replays one record, checking it reproduces the recorded outcome.
func (l *Log) apply(rec store.JournalRecord) error {
	st := l.st
	if e := st.Epoch(); rec.Change.Epoch != e+1 {
		return fmt.Errorf("record epoch %d does not follow store epoch %d", rec.Change.Epoch, e)
	}
	switch rec.Change.Op {
	case store.OpAdd:
		id, err := st.Add(rec.Quad)
		if err != nil {
			return fmt.Errorf("replaying add at epoch %d: %w", rec.Change.Epoch, err)
		}
		if id != rec.Change.ID {
			return fmt.Errorf("replayed add at epoch %d yielded fact %d, log says %d", rec.Change.Epoch, id, rec.Change.ID)
		}
	case store.OpRemove:
		if !st.RemoveID(rec.Change.ID) {
			return fmt.Errorf("replayed remove of fact %d at epoch %d was a no-op", rec.Change.ID, rec.Change.Epoch)
		}
	}
	if e := st.Epoch(); e != rec.Change.Epoch {
		return fmt.Errorf("store at epoch %d after replaying record for epoch %d", e, rec.Change.Epoch)
	}
	return nil
}

// Stats returns what recovery found.
func (l *Log) Stats() RecoveryStats { return l.stats }

// Append implements store.Journal. It is called under the store's write
// lock: the record is encoded into the in-memory tail and the tail is
// written through once it passes the flush threshold. Write errors wedge
// the log (recorded once, surfaced by Flush/Sync/Checkpoint/Close);
// in-memory mutations are never blocked on the disk.
func (l *Log) Append(rec store.JournalRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.closed {
		return
	}
	l.scratch = appendRecordPayload(l.scratch[:0], rec)
	l.buf = appendFrame(l.buf, l.scratch)
	l.lastEpoch = rec.Change.Epoch
	if len(l.buf) >= flushBytes {
		l.flushLocked()
	}
}

func (l *Log) flushLocked() {
	if l.err != nil || len(l.buf) == 0 {
		return
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return
	}
	l.buf = l.buf[:0]
	l.writtenEpoch = l.lastEpoch
}

// Flush writes the buffered tail to the OS without fsyncing.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	return l.err
}

// Sync flushes and fsyncs the current segment, advancing the durable
// epoch: every change up to it survives a crash.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	l.flushLocked()
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	l.durableEpoch = l.writtenEpoch
	return nil
}

// DurableEpoch returns the newest epoch guaranteed to survive a crash —
// covered by the fsynced log tail or by the snapshot. The store's
// CompactLog is clamped to this (Open registers it as the compaction
// floor), so the in-memory change log always still covers the un-synced
// suffix.
func (l *Log) DurableEpoch() store.Epoch {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapEpoch > l.durableEpoch {
		return l.snapEpoch
	}
	return l.durableEpoch
}

// rotate seals the current segment (flush + fsync) and starts the next.
func (l *Log) rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	f, err := os.OpenFile(l.segPath(l.seq+1), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		f.Close()
		return l.err
	}
	l.f = f
	l.seq++
	return nil
}

// Checkpoint compacts the log: it rotates to a fresh segment, pins an
// epoch-consistent copy of the store (a brief read-locked memcpy —
// ingest proceeds while the snapshot is encoded), writes it to
// snapshot.tqs with an atomic rename, and deletes every sealed segment
// the snapshot covers. After a successful checkpoint the directory holds
// the snapshot plus only the change tail appended since the pin.
func (l *Log) Checkpoint() error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if err := l.rotate(); err != nil {
		return err
	}
	// Every record in a sealed segment now has epoch ≤ sn.Epoch():
	// rotation happened before the pin, and appends since go to the
	// fresh segment. Records in the fresh segment at or below the
	// watermark are skipped at recovery.
	sn := l.st.Checkpoint()
	if err := l.writeSnapshot(sn); err != nil {
		return err
	}

	l.mu.Lock()
	l.snapEpoch = sn.Epoch()
	cur := l.seq
	l.mu.Unlock()
	seqs, err := segmentSeqs(l.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq >= cur {
			continue
		}
		if err := os.Remove(l.segPath(seq)); err != nil {
			return fmt.Errorf("wal: dropping sealed segment: %w", err)
		}
	}
	return nil
}

// writeSnapshot encodes sn to snapshot.tqs via a temp file, fsync and
// atomic rename.
func (l *Log) writeSnapshot(sn *store.Snapshot) error {
	path := filepath.Join(l.dir, SnapshotFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := sn.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(l.dir)
}

// syncDir fsyncs a directory so renames and unlinks are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Close detaches the journal from the store, flushes and fsyncs the
// tail, and closes the segment. The store stays usable (non-durably)
// after Close.
func (l *Log) Close() error {
	// Detach before taking the internal mutex: SetJournal takes the
	// store's write lock, which journaled writers hold while calling
	// Append.
	l.st.SetJournal(nil)
	l.st.SetCompactFloor(nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: %w", cerr)
		l.err = err
	}
	return err
}
