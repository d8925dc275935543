package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/temporal"
)

func quad(i int, conf float64) rdf.Quad {
	return rdf.NewQuad(
		fmt.Sprintf("s/%03d", i%7),
		fmt.Sprintf("p/%d", i%3),
		fmt.Sprintf("o/%03d", i%11),
		temporal.Interval{Start: int64(i % 5), End: int64(i%5 + 3)},
		conf,
	)
}

// script applies a deterministic add/remove/revive/raise sequence and
// returns the graph after every epoch, indexed by epoch.
func script(t *testing.T, st *store.Store, steps int, seed int64) []rdf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := []rdf.Graph{{}} // epoch 0: empty
	for len(graphs) <= steps {
		before := st.Epoch()
		switch rng.Intn(10) {
		case 0, 1: // remove a live fact, if any
			bound := st.IDBound()
			if bound == 0 {
				continue
			}
			st.RemoveID(store.FactID(rng.Intn(bound)))
		case 2: // confidence raise or duplicate no-op
			bound := st.IDBound()
			if bound == 0 {
				continue
			}
			q := st.Fact(store.FactID(rng.Intn(bound)))
			q.Confidence = rng.Float64()*0.98 + 0.01
			if _, err := st.Add(q); err != nil {
				t.Fatalf("re-add: %v", err)
			}
		default:
			if _, err := st.Add(quad(rng.Intn(60), rng.Float64()*0.98+0.01)); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
		if st.Epoch() == before {
			continue // no-op mutation, no epoch to record
		}
		graphs = append(graphs, st.Graph())
	}
	return graphs
}

func openOrFatal(t *testing.T, dir string) (*Log, *store.Store) {
	t.Helper()
	l, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, st
}

func TestRoundTripEmpty(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	if st.Epoch() != 0 || st.Len() != 0 {
		t.Fatalf("fresh store not empty: epoch %d len %d", st.Epoch(), st.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st2 := openOrFatal(t, dir)
	defer l2.Close()
	if st2.Epoch() != 0 || st2.Len() != 0 {
		t.Fatalf("reopened store not empty: epoch %d len %d", st2.Epoch(), st2.Len())
	}
}

func TestReplayWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	graphs := script(t, st, 120, 7)
	want := graphs[len(graphs)-1]
	wantEpoch := st.Epoch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2 := openOrFatal(t, dir)
	defer l2.Close()
	if st2.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", st2.Epoch(), wantEpoch)
	}
	if got := st2.Graph(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered graph differs: %d facts vs %d", len(got), len(want))
	}
	if s := l2.Stats(); s.SnapshotLoaded || s.ReplayedRecords != int(wantEpoch) {
		t.Fatalf("stats %+v, want no snapshot and %d replayed", s, wantEpoch)
	}
}

func TestCheckpointAndReplaySuffix(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	script(t, st, 100, 21)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptEpoch := st.Epoch()
	script(t, st, 40, 22)
	want := st.Graph()
	wantEpoch := st.Epoch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2 := openOrFatal(t, dir)
	defer l2.Close()
	s := l2.Stats()
	if !s.SnapshotLoaded || s.Watermark < ckptEpoch-1 {
		// The checkpoint pin may land an epoch or two past the last
		// scripted step only if mutations raced it; here none do.
		t.Fatalf("stats %+v, want snapshot at %d", s, ckptEpoch)
	}
	if st2.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", st2.Epoch(), wantEpoch)
	}
	if got := st2.Graph(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered graph differs")
	}
	if s.ReplayedRecords != int(wantEpoch-s.Watermark) {
		t.Fatalf("replayed %d records, want %d", s.ReplayedRecords, wantEpoch-s.Watermark)
	}
}

// TestCheckpointDropsSealedSegments asserts compaction actually deletes:
// after a checkpoint plus reopen, only segments at or after the
// checkpoint's rotation remain.
func TestCheckpointDropsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	script(t, st, 80, 5)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := segmentSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("want exactly the post-rotation segment, have %v", seqs)
	}
}

// TestFactIDStability asserts ids — including tombstoned and revived
// ones — survive the snapshot+replay round trip, the property the
// solver's canonical ordering depends on.
func TestFactIDStability(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	script(t, st, 150, 33)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	script(t, st, 50, 34)
	bound := st.IDBound()
	type entry struct {
		q    rdf.Quad
		live bool
	}
	want := make([]entry, bound)
	for id := 0; id < bound; id++ {
		want[id] = entry{q: st.Fact(store.FactID(id)), live: st.Live(store.FactID(id))}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st2 := openOrFatal(t, dir)
	defer l2.Close()
	if st2.IDBound() != bound {
		t.Fatalf("id bound %d, want %d", st2.IDBound(), bound)
	}
	for id := 0; id < bound; id++ {
		got := entry{q: st2.Fact(store.FactID(id)), live: st2.Live(store.FactID(id))}
		if got != want[id] {
			t.Fatalf("fact %d differs after recovery:\n got %+v\nwant %+v", id, got, want[id])
		}
	}
}

// TestCrashPointRecovery is the crash-injection property suite: a
// recorded run's WAL is truncated at every byte boundary, and recovery
// must come back with the longest valid record prefix — epoch-exact
// against the graphs recorded during the run — never an error or a
// panic.
func TestCrashPointRecovery(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	graphs := script(t, st, 60, 99)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := segmentSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("segments: %v %v", seqs, err)
	}
	// Close syncs everything; a single segment holds the whole run.
	seg := filepath.Join(dir, fmt.Sprintf("%s%016d.log", segPrefix, seqs[0]))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "wal-0000000000000001.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, st2, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		e := int(st2.Epoch())
		if e >= len(graphs) {
			t.Fatalf("cut %d: recovered past the recorded run: epoch %d", cut, e)
		}
		if got := st2.Graph(); !reflect.DeepEqual(got, graphs[e]) {
			t.Fatalf("cut %d: graph at epoch %d differs from recording", cut, e)
		}
		// The recovered prefix must cover every fully present record:
		// a cut mid-record may only lose that record.
		if rem := len(data[:cut]) - replayableBytes(data[:cut]); rem < 0 {
			t.Fatalf("cut %d: inconsistent prefix accounting", cut)
		}
		l2.Close()
	}
}

// replayableBytes returns the byte length of the longest valid record
// prefix of data, computed independently of recovery.
func replayableBytes(data []byte) int {
	off := 0
	for off < len(data) {
		_, n, err := decodeRecord(data[off:])
		if err != nil {
			break
		}
		off += n
	}
	return off
}

// TestCorruptByteRecovery flips individual bytes of a sealed log and
// asserts recovery still yields a valid prefix state, never a panic or
// a malformed store.
func TestCorruptByteRecovery(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	graphs := script(t, st, 40, 123)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := segmentSeqs(dir)
	seg := filepath.Join(dir, fmt.Sprintf("%s%016d.log", segPrefix, seqs[0]))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos += 7 { // sampled positions
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= flip
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, "wal-0000000000000001.log"), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			l2, st2, err := Open(cdir, Options{})
			if err != nil {
				// A flip that survives CRC into a structurally valid but
				// non-replayable record (or fakes an epoch gap) must fail
				// loudly — that is acceptable; silent misreplay is not.
				continue
			}
			e := int(st2.Epoch())
			if e >= len(graphs) {
				t.Fatalf("pos %d flip %x: recovered past the recording", pos, flip)
			}
			if got := st2.Graph(); !reflect.DeepEqual(got, graphs[e]) {
				t.Fatalf("pos %d flip %x: recovered state diverges from the recording", pos, flip)
			}
			l2.Close()
		}
	}
}

// TestSnapshotCorruptionFailsClosed asserts a damaged snapshot is
// reported, not silently half-loaded.
func TestSnapshotCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	script(t, st, 50, 77)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("recovery over a corrupt snapshot succeeded")
	}
}

// TestCompactFloorClamp asserts the store's log truncation never
// outruns the WAL's durable tail.
func TestCompactFloorClamp(t *testing.T) {
	dir := t.TempDir()
	l, st := openOrFatal(t, dir)
	defer l.Close()
	script(t, st, 30, 13)
	// Nothing synced yet: only buffered appends. The durable epoch is
	// whatever Open recovered (0), so compaction must be a no-op.
	st.CompactLog(st.Epoch())
	if c := st.CompactedEpoch(); c != 0 {
		t.Fatalf("change log compacted to %d past the durable tail 0", c)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st.CompactLog(st.Epoch())
	if c := st.CompactedEpoch(); c != st.Epoch() {
		t.Fatalf("compaction floor %d after sync, want %d", c, st.Epoch())
	}
}

// TestParentDataDirRecovers opens testdata/tqs2-parent — a snapshot at
// a checkpoint plus the log suffix after it, written by the snapshot
// codec that preceded the block encoder (script seeds 31 and 32,
// 100 + 40 steps, checkpoint between) — and checks it recovers to the
// store those steps build in memory: same epoch, fact ids, liveness and
// statements.
func TestParentDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "tqs2-parent")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := store.New()
	script(t, want, 100, 31)
	script(t, want, 40, 32)

	l, got := openOrFatal(t, dir)
	defer l.Close()
	if s := l.Stats(); !s.SnapshotLoaded || s.ReplayedRecords == 0 {
		t.Fatalf("stats %+v, want a snapshot and a replayed suffix", s)
	}
	if got.Epoch() != want.Epoch() || got.IDBound() != want.IDBound() || got.Len() != want.Len() {
		t.Fatalf("recovered epoch/ids/live %d/%d/%d, want %d/%d/%d",
			got.Epoch(), got.IDBound(), got.Len(), want.Epoch(), want.IDBound(), want.Len())
	}
	for id := store.FactID(0); int(id) < want.IDBound(); id++ {
		if got.Live(id) != want.Live(id) || got.Fact(id) != want.Fact(id) {
			t.Fatalf("fact %d: %v live=%v, want %v live=%v", id, got.Fact(id), got.Live(id), want.Fact(id), want.Live(id))
		}
	}
}
