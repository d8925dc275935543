package store

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/temporal"
)

// pinnedTombstonedSnapshot is the TQS2 encoding of tombstonedStore as
// written by the bufio-and-hash.Hash32 encoder that preceded the
// block encoder. The format has not changed since; a codec rewrite must
// reproduce these bytes exactly.
const pinnedTombstonedSnapshot = "54515332070a0002435200000005636f616368000000074368656c736561000000094c656963657374657200000008706c617973466f720000000750616c65726d6f00000009626972746844617465000001043139353128687474703a2f2f7777772e77332e6f72672f323030312f584d4c536368656d6123696e74656765720000064e61706f6c69000000064d6164726964000006010203a01fa81fcdccccccccccec3f0100010204be1fc21f666666666666e63f0200010506801f841f000000000000e03f0300010708be1ec21f000000000000f03f0400010209a21fa61f333333333333e33f050601020aaa1fae1f9a9999999999d93f07005d0dac88"

// TestSnapshotBytesPinned pins the on-disk format: Save reproduces the
// pinned bytes, and Load of them restores the same facts, liveness,
// epoch and compaction floor.
func TestSnapshotBytesPinned(t *testing.T) {
	pinned, err := hex.DecodeString(pinnedTombstonedSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	st := tombstonedStore(t)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), pinned) {
		t.Fatalf("Save wrote\n%x\nwant the pinned\n%x", buf.Bytes(), pinned)
	}
	back, err := Load(bytes.NewReader(pinned))
	if err != nil {
		t.Fatalf("Load(pinned): %v", err)
	}
	if back.Epoch() != st.Epoch() || back.CompactedEpoch() != st.Epoch() {
		t.Fatalf("Epoch/CompactedEpoch = %d/%d, want %d/%d", back.Epoch(), back.CompactedEpoch(), st.Epoch(), st.Epoch())
	}
	if back.IDBound() != st.IDBound() || back.Len() != st.Len() {
		t.Fatalf("IDBound/Len = %d/%d, want %d/%d", back.IDBound(), back.Len(), st.IDBound(), st.Len())
	}
	for id := FactID(0); int(id) < st.IDBound(); id++ {
		if back.Live(id) != st.Live(id) || back.Fact(id) != st.Fact(id) {
			t.Errorf("fact %d: %v live=%v, want %v live=%v", id, back.Fact(id), back.Live(id), st.Fact(id), st.Live(id))
		}
	}
}

// clusteredStore loads the clustered workload (six facts per cluster)
// and tombstones every tenth fact, so snapshots carry dead records too.
func clusteredStore(tb testing.TB, clusters int) *Store {
	tb.Helper()
	ds := kgen.Clustered(kgen.ClusteredConfig{Clusters: clusters, ClusterSize: 6, BridgeRate: 0.1, Seed: 5})
	st := New()
	if err := st.AddGraph(ds.Graph); err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < st.IDBound(); id += 10 {
		st.RemoveID(FactID(id))
	}
	return st
}

func saveBytes(tb testing.TB, st *Store) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// assertSameIndexes compares two stores through every read the grounder
// and its planner make: the matches and posting lengths of every term
// code at every position, and the fact and term counts.
func assertSameIndexes(t *testing.T, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || got.IDBound() != want.IDBound() || got.Epoch() != want.Epoch() {
		t.Fatalf("Len/IDBound/Epoch = %d/%d/%d, want %d/%d/%d",
			got.Len(), got.IDBound(), got.Epoch(), want.Len(), want.IDBound(), want.Epoch())
	}
	gv, wv := got.ReadView(), want.ReadView()
	if g, w := got.MemoryStats().Terms, want.MemoryStats().Terms; g != w {
		t.Fatalf("MemoryStats().Terms = %d, want %d", g, w)
	}
	for code := TermID(1); int(code) <= len(want.Terms())-1; code++ {
		for pos, cp := range []CodePattern{{S: code}, {P: code}, {O: code}} {
			if g, w := gv.MatchCodeIDs(cp), wv.MatchCodeIDs(cp); !reflect.DeepEqual(g, w) {
				t.Fatalf("MatchCodeIDs(%+v) = %v, want %v", cp, g, w)
			}
			if g, w := gv.PostingLen(pos, code), wv.PostingLen(pos, code); g != w {
				t.Fatalf("PostingLen(%d, %d) = %d, want %d", pos, code, g, w)
			}
		}
	}
}

// TestLoadEqualsRebuilt checks a loaded store against the store it was
// saved from, before and after the same 200 seeded adds, removes and
// revivals on both. The loaded store's posting lists are windows of one
// backing array per position; an append that wrote into a neighbour's
// window shows up here.
func TestLoadEqualsRebuilt(t *testing.T) {
	st := clusteredStore(t, 300)
	back, err := Load(bytes.NewReader(saveBytes(t, st)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertSameIndexes(t, back, st)
	if g, w := back.MemoryStats().PostingBytes, st.MemoryStats().PostingBytes; g > w {
		t.Errorf("loaded postings take %d bytes, more than the %d of the store they were saved from", g, w)
	}

	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 200; step++ {
		q := st.Fact(FactID(rng.Intn(st.IDBound())))
		switch rng.Intn(3) {
		case 0: // a new statement over existing terms: appends to three lists
			q.Interval = temporal.Interval{Start: q.Interval.Start + 1000 + int64(step), End: q.Interval.End + 1000 + int64(step)}
			fallthrough
		case 1: // a revival, or a no-op re-add of a live fact
			for _, s := range []*Store{st, back} {
				if _, err := s.Add(q); err != nil {
					t.Fatalf("step %d: Add: %v", step, err)
				}
			}
		default:
			a, _ := st.Remove(q)
			b, _ := back.Remove(q)
			if a != b {
				t.Fatalf("step %d: Remove hit fact %d and %d", step, a, b)
			}
		}
	}
	assertSameIndexes(t, back, st)
}

// TestSnapshotLoadAllocs gates Load at under 3 allocations per fact on
// the clustered store: the input is read once and decoded in place, the
// tables are sized from the header counts and each posting index is one
// backing array, so what remains is about one string per term. Decoding
// byte by byte through a checksumming io.ByteReader made 21.4.
func TestSnapshotLoadAllocs(t *testing.T) {
	skipAllocGateUnderRace(t)
	st := clusteredStore(t, 2000)
	data := saveBytes(t, st)
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	perFact := avg / float64(st.IDBound())
	t.Logf("Load: %.0f allocs for %d facts, %.2f per fact", avg, st.IDBound(), perFact)
	if perFact >= 3 {
		t.Errorf("Load allocates %.2f objects per fact, want under 3", perFact)
	}
}

// TestSnapshotSaveAllocs gates Save at a number of allocations that does
// not grow with the store: the snapshot copy and one bounded block, at
// 2k facts as at 12k. A per-field write or checksum call that allocates
// made 40,215 at 12k.
func TestSnapshotSaveAllocs(t *testing.T) {
	skipAllocGateUnderRace(t)
	allocs := func(clusters int) float64 {
		st := clusteredStore(t, clusters)
		avg := testing.AllocsPerRun(5, func() {
			if err := st.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Save: %.0f allocs for %d facts", avg, st.IDBound())
		return avg
	}
	small, large := allocs(330), allocs(2000)
	if large > small || large > 8 {
		t.Errorf("Save allocates %.0f objects at 12k facts and %.0f at 2k; want a constant of at most 8", large, small)
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	st := clusteredStore(b, 2000)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotSave(b *testing.B) {
	st := clusteredStore(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotLongTerm round-trips a term longer than Encode's block,
// which the encoder must write whole between two flushes.
func TestSnapshotLongTerm(t *testing.T) {
	st := newFigure1Store(t)
	long := rdf.Quad{
		Subject:    rdf.NewIRI("CR"),
		Predicate:  rdf.NewIRI("motto"),
		Object:     rdf.Term{Kind: rdf.Literal, Value: strings.Repeat("x", 3*snapshotBlock)},
		Interval:   temporal.MustNew(2000, 2001),
		Confidence: 0.5,
	}
	id, err := st.Add(long)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(saveBytes(t, st)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Fact(id) != long {
		t.Fatal("the long literal did not survive the round trip")
	}
}
