package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// tombstonedStore returns a store with live facts, a tombstone and a
// multi-epoch history — the state a v2 snapshot must preserve exactly.
func tombstonedStore(t testing.TB) *Store {
	t.Helper()
	st := newFigure1Store(t)
	if _, ok := st.Remove(rdf.NewQuad("CR", "coach", "Napoli", temporal.MustNew(2001, 2003), 0.6)); !ok {
		t.Fatal("Remove failed")
	}
	if _, err := st.Add(rdf.NewQuad("CR", "coach", "Madrid", temporal.MustNew(2005, 2007), 0.4)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return st
}

func TestSnapshotTombstoneRoundTrip(t *testing.T) {
	st := tombstonedStore(t)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != st.Len() || back.IDBound() != st.IDBound() {
		t.Fatalf("Len/IDBound = %d/%d, want %d/%d", back.Len(), back.IDBound(), st.Len(), st.IDBound())
	}
	if back.Epoch() != st.Epoch() {
		t.Fatalf("Epoch = %d, want %d", back.Epoch(), st.Epoch())
	}
	if back.CompactedEpoch() != st.Epoch() {
		t.Fatalf("CompactedEpoch = %d, want the watermark %d", back.CompactedEpoch(), st.Epoch())
	}
	// Dense ids, liveness and content survive — including the tombstone.
	for id := 0; id < st.IDBound(); id++ {
		if back.Live(FactID(id)) != st.Live(FactID(id)) {
			t.Errorf("fact %d liveness mismatch", id)
		}
		if back.Fact(FactID(id)) != st.Fact(FactID(id)) {
			t.Errorf("fact %d mismatch", id)
		}
	}
}

// encodeV1 writes the legacy TQS1 snapshot layout: live facts only, no
// epoch watermark, no checksum trailer. Nothing produces it any more, so
// the rejection test and the fuzz seed construct it by hand.
func encodeV1(g rdf.Graph) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	sv := func(v int64) { buf.Write(tmp[:binary.PutVarint(tmp[:], v)]) }
	str := func(s string) { uv(uint64(len(s))); buf.WriteString(s) }

	codes := map[rdf.Term]uint64{}
	var terms []rdf.Term
	code := func(tm rdf.Term) uint64 {
		if c, ok := codes[tm]; ok {
			return c
		}
		terms = append(terms, tm)
		codes[tm] = uint64(len(terms))
		return codes[tm]
	}
	type rec struct{ s, p, o uint64 }
	recs := make([]rec, len(g))
	for i, q := range g {
		recs[i] = rec{code(q.Subject), code(q.Predicate), code(q.Object)}
	}

	buf.Write([]byte("TQS1"))
	uv(uint64(len(terms)))
	for _, tm := range terms {
		buf.WriteByte(byte(tm.Kind))
		str(tm.Value)
		str(tm.Datatype)
		str(tm.Lang)
	}
	uv(uint64(len(g)))
	for i, q := range g {
		uv(recs[i].s)
		uv(recs[i].p)
		uv(recs[i].o)
		sv(q.Interval.Start)
		sv(q.Interval.End)
		var cb [8]byte
		binary.LittleEndian.PutUint64(cb[:], math.Float64bits(q.Confidence))
		buf.Write(cb[:])
	}
	return buf.Bytes()
}

// TestSnapshotV1Compat pins how the retired format is handled: nothing
// has written TQS1 since the WAL landed, so Load fails closed on it
// instead of guessing an epoch history.
func TestSnapshotV1Compat(t *testing.T) {
	st, err := Load(bytes.NewReader(encodeV1(figure1Graph())))
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Fatalf("Load(v1) = %v, %v; want an unsupported-version error", st, err)
	}
}

// FuzzSnapshotLoad drives Load with arbitrary bytes: it must reject
// corruption with an error — never panic, never build a malformed store
// — and anything it accepts must itself survive a save/load round trip.
func FuzzSnapshotLoad(f *testing.F) {
	st := New()
	if err := st.AddGraph(figure1Graph()); err != nil {
		f.Fatal(err)
	}
	st.Remove(rdf.NewQuad("CR", "coach", "Napoli", temporal.MustNew(2001, 2003), 0.6))
	var v2 bytes.Buffer
	if err := st.Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(encodeV1(figure1Graph()))
	f.Add([]byte{})
	f.Add([]byte("TQS2"))
	f.Add([]byte("TQS1\x01"))
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := loaded.Save(&out); err != nil {
			t.Fatalf("re-saving an accepted snapshot: %v", err)
		}
		back, err := Load(&out)
		if err != nil {
			t.Fatalf("re-loading an accepted snapshot: %v", err)
		}
		if back.Len() != loaded.Len() || back.IDBound() != loaded.IDBound() || back.Epoch() != loaded.Epoch() {
			t.Fatalf("round trip drifted: %d/%d/%d facts/ids/epoch, want %d/%d/%d",
				back.Len(), back.IDBound(), back.Epoch(), loaded.Len(), loaded.IDBound(), loaded.Epoch())
		}
	})
}

// gateWriter blocks the first write until released, pinning a snapshot
// serialization mid-stream.
type gateWriter struct {
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.reached)
		<-w.release
	})
	return len(p), nil
}

// TestCheckpointDuringIngest pins a Save mid-serialization and proves
// writers still make progress: the read lock is only held for the
// epoch-pinned copy, never across the encoding pass. Under the old
// whole-serialization lock hold, the adds below would block until the
// writer was released and the test would time out.
func TestCheckpointDuringIngest(t *testing.T) {
	st := newFigure1Store(t)
	w := &gateWriter{reached: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- st.Save(w) }()
	<-w.reached

	// The encoder is stalled inside its output stream; concurrent adds
	// must complete anyway.
	added := make(chan error, 1)
	go func() {
		for i := int64(0); i < 100; i++ {
			q := rdf.Quad{
				Subject:    rdf.NewIRI("S"),
				Predicate:  rdf.NewIRI("ingest"),
				Object:     rdf.Integer(i),
				Interval:   temporal.MustNew(i, i+1),
				Confidence: 0.5,
			}
			if _, err := st.Add(q); err != nil {
				added <- err
				return
			}
		}
		added <- nil
	}()
	select {
	case err := <-added:
		if err != nil {
			t.Fatalf("Add during Save: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("adds blocked behind an in-flight Save")
	}
	select {
	case err := <-saved:
		t.Fatalf("Save returned (%v) before its writer was released", err)
	default:
	}
	close(w.release)
	if err := <-saved; err != nil {
		t.Fatalf("Save: %v", err)
	}
}
