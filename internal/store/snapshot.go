package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/rdf"
)

// Binary snapshot format, version 2 ("TQS2"):
//
//	magic "TQS2" | uvarint epoch | uvarint termCount | terms... |
//	uvarint factCount | facts... | crc32c(4B LE)
//
// Each term is kind(1B) + 3 length-prefixed strings (value, datatype,
// lang), in dictionary-code order so Load reassigns identical codes.
// Each fact is 3 term-id uvarints + 2 zig-zag varint chronons + 8-byte
// LE confidence + addedAt/removedAt epoch uvarints. Facts are written
// in dense id order *including tombstones*, so FactIDs — which
// the solver's canonical evidence ordering and the WAL's replay records
// depend on — survive a save/load round trip exactly. The epoch
// watermark is persisted so recovery knows where WAL replay resumes; the
// trailer is CRC-32C over everything before it. The format is
// independent of map iteration order and round-trips exactly.
//
// Version 1 ("TQS1") — live facts only, no epochs, no checksum — has had
// no writer since the WAL landed and is rejected as unsupported.

var snapshotMagicV2 = [4]byte{'T', 'Q', 'S', '2'}

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is an epoch-pinned, immutable copy of the store's persistent
// state, captured by Checkpoint. Serializing it (WriteTo) needs no lock:
// the fact records are a private copy and the term slice's published
// entries are immutable.
type Snapshot struct {
	epoch Epoch
	terms []rdf.Term // code-indexed, entry 0 unused; immutable prefix
	facts []fact     // private copy, dense id order
}

// Checkpoint captures an epoch-pinned copy of the store under a brief
// read lock — one fact-table memcpy plus two header reads, never a full
// serialization pass — so writers resume while the snapshot is encoded.
func (st *Store) Checkpoint() *Snapshot {
	st.mu.RLock()
	sn := &Snapshot{
		epoch: st.epoch,
		terms: st.dict.Terms(),
		facts: append([]fact(nil), st.facts...),
	}
	st.mu.RUnlock()
	return sn
}

// Epoch returns the store epoch the snapshot was pinned at.
func (sn *Snapshot) Epoch() Epoch { return sn.epoch }

// crcWriter tees every written byte into a running CRC.
type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	return n, err
}

func (cw *crcWriter) WriteByte(b byte) error {
	if err := cw.w.WriteByte(b); err != nil {
		return err
	}
	cw.crc.Write([]byte{b})
	return nil
}

// Encode writes the snapshot in TQS2 format. It holds no locks.
func (sn *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw, crc: crc32.New(snapshotCRC)}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := cw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := cw.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(cw, s)
		return err
	}
	fail := func(err error) error { return fmt.Errorf("store: snapshot: %w", err) }

	if _, err := cw.Write(snapshotMagicV2[:]); err != nil {
		return fail(err)
	}
	if err := writeUvarint(uint64(sn.epoch)); err != nil {
		return fail(err)
	}
	if err := writeUvarint(uint64(len(sn.terms) - 1)); err != nil {
		return fail(err)
	}
	for _, t := range sn.terms[1:] {
		if err := cw.WriteByte(byte(t.Kind)); err != nil {
			return fail(err)
		}
		for _, s := range []string{t.Value, t.Datatype, t.Lang} {
			if err := writeString(s); err != nil {
				return fail(err)
			}
		}
	}
	if err := writeUvarint(uint64(len(sn.facts))); err != nil {
		return fail(err)
	}
	for i := range sn.facts {
		f := &sn.facts[i]
		if err := writeUvarint(uint64(f.s)); err != nil {
			return fail(err)
		}
		if err := writeUvarint(uint64(f.p)); err != nil {
			return fail(err)
		}
		if err := writeUvarint(uint64(f.o)); err != nil {
			return fail(err)
		}
		if err := writeVarint(f.iv.Start); err != nil {
			return fail(err)
		}
		if err := writeVarint(f.iv.End); err != nil {
			return fail(err)
		}
		var cb [8]byte
		binary.LittleEndian.PutUint64(cb[:], math.Float64bits(f.conf))
		if _, err := cw.Write(cb[:]); err != nil {
			return fail(err)
		}
		if err := writeUvarint(uint64(f.addedAt)); err != nil {
			return fail(err)
		}
		if err := writeUvarint(uint64(f.removedAt)); err != nil {
			return fail(err)
		}
	}
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], cw.crc.Sum32())
	if _, err := bw.Write(tb[:]); err != nil { // trailer is outside the CRC
		return fail(err)
	}
	return bw.Flush()
}

// Save writes a binary snapshot of the store in the current (TQS2)
// format. The store is pinned for one brief read-locked copy; the
// serialization itself runs without blocking writers.
func (st *Store) Save(w io.Writer) error {
	return st.Checkpoint().Encode(w)
}

// snapReader reads snapshot input while folding every consumed byte into
// a running CRC. It implements io.ByteReader so the binary varint
// readers can consume it directly; reads never run ahead of consumption,
// keeping the CRC aligned with the payload regardless of the underlying
// bufio buffering.
type snapReader struct {
	br  *bufio.Reader
	crc hash.Hash32
}

func (r *snapReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.crc.Write([]byte{b})
	}
	return b, err
}

func (r *snapReader) ReadFull(b []byte) error {
	if _, err := io.ReadFull(r.br, b); err != nil {
		return err
	}
	r.crc.Write(b)
	return nil
}

func (r *snapReader) readString() (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	b := make([]byte, n)
	if err := r.ReadFull(b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *snapReader) readTerm() (rdf.Term, error) {
	var t rdf.Term
	kindB, err := r.ReadByte()
	if err != nil {
		return t, err
	}
	if kindB > byte(rdf.Blank) {
		return t, fmt.Errorf("invalid term kind %d", kindB)
	}
	t.Kind = rdf.TermKind(kindB)
	if t.Value, err = r.readString(); err != nil {
		return t, err
	}
	if t.Datatype, err = r.readString(); err != nil {
		return t, err
	}
	t.Lang, err = r.readString()
	return t, err
}

// preallocCap caps count-driven allocation so a corrupt header cannot
// over-allocate: slices start at min(count, cap) and grow by append,
// which fails on genuine truncation long before memory does.
func preallocCap(count uint64, cap int) int {
	if count < uint64(cap) {
		return int(count)
	}
	return cap
}

// Load reads a binary snapshot into a fresh store, restoring the exact
// fact table — ids, tombstones and the epoch watermark (Epoch() and the
// compaction floor equal the watermark; per-fact lifespans are
// preserved, revive history below the watermark is not, so DeltaSince
// below it is conservative, matching the documented CompactLog
// semantics) — and verifying the checksum trailer. Every structural
// field is validated (term kinds, id ranges, epoch bounds, quad shape),
// so a corrupt or truncated snapshot yields an error, never a malformed
// store.
func Load(r io.Reader) (*Store, error) {
	sr := &snapReader{br: bufio.NewReaderSize(r, 1<<16), crc: crc32.New(snapshotCRC)}
	var magic [4]byte
	if err := sr.ReadFull(magic[:]); err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	if magic != snapshotMagicV2 {
		return nil, fmt.Errorf("store: snapshot: unsupported snapshot version or bad magic %q", magic[:])
	}
	return loadV2(sr)
}

// loadV2 rebuilds the exact fact table — ids, tombstones, lifespans —
// and verifies the checksum trailer.
func loadV2(sr *snapReader) (*Store, error) {
	st := New()
	epoch, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	st.epoch = Epoch(epoch)
	st.compacted = st.epoch
	termCount, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	// readTerm allocates every string afresh, so the dictionary need not
	// copy them again.
	st.dict.own = false
	for i := uint64(0); i < termCount; i++ {
		t, err := sr.readTerm()
		if err != nil {
			return nil, fmt.Errorf("store: snapshot: term %d: %w", i, err)
		}
		if id := st.dict.Encode(t); uint64(id) != i+1 {
			// A duplicate term collapsed to an earlier code: the snapshot
			// is corrupt and every later term reference would be shifted.
			return nil, fmt.Errorf("store: snapshot: term %d: duplicate of code %d", i, id)
		}
	}
	st.dict.own = true
	factCount, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	st.facts = make([]fact, 0, preallocCap(factCount, 1<<20))
	for i := uint64(0); i < factCount; i++ {
		f, err := readFactRecord(sr, st.dict.Len())
		if err != nil {
			return nil, fmt.Errorf("store: snapshot: fact %d: %w", i, err)
		}
		if err := validateFactEpochs(f, st.epoch); err != nil {
			return nil, fmt.Errorf("store: snapshot: fact %d: %w", i, err)
		}
		q := rdf.Quad{
			Subject:    st.dict.Decode(f.s),
			Predicate:  st.dict.Decode(f.p),
			Object:     st.dict.Decode(f.o),
			Interval:   f.iv,
			Confidence: f.conf,
		}
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("store: snapshot: fact %d: %w", i, err)
		}
		key := factKey{s: f.s, p: f.p, o: f.o, iv: f.iv}
		if _, ok := st.lookupFactLocked(key); ok {
			return nil, fmt.Errorf("store: snapshot: fact %d: duplicate statement", i)
		}
		id := FactID(len(st.facts))
		st.facts = append(st.facts, f)
		st.insertFactLocked(key, id)
		if len(posting(st.byS, f.s)) == 0 {
			st.nzS++
		}
		if len(posting(st.byP, f.p)) == 0 {
			st.nzP++
		}
		if len(posting(st.byO, f.o)) == 0 {
			st.nzO++
		}
		addPosting(&st.byS, f.s, id)
		addPosting(&st.byP, f.p, id)
		addPosting(&st.byO, f.o, id)
		if f.removedAt != 0 {
			st.dead++
		}
	}
	want := sr.crc.Sum32()
	var tb [4]byte
	if _, err := io.ReadFull(sr.br, tb[:]); err != nil {
		return nil, fmt.Errorf("store: snapshot: checksum trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tb[:]); got != want {
		return nil, fmt.Errorf("store: snapshot: checksum mismatch (have %08x, computed %08x)", got, want)
	}
	return st, nil
}

// readFactRecord decodes one fact record. Term ids are validated against
// the dictionary size.
func readFactRecord(sr *snapReader, dictLen int) (fact, error) {
	var f fact
	readID := func() (TermID, error) {
		v, err := binary.ReadUvarint(sr)
		if err != nil {
			return 0, err
		}
		if v == 0 || v > uint64(dictLen) {
			return 0, fmt.Errorf("term id %d out of range", v)
		}
		return TermID(v), nil
	}
	var err error
	if f.s, err = readID(); err != nil {
		return f, err
	}
	if f.p, err = readID(); err != nil {
		return f, err
	}
	if f.o, err = readID(); err != nil {
		return f, err
	}
	if f.iv.Start, err = binary.ReadVarint(sr); err != nil {
		return f, err
	}
	if f.iv.End, err = binary.ReadVarint(sr); err != nil {
		return f, err
	}
	var cb [8]byte
	if err := sr.ReadFull(cb[:]); err != nil {
		return f, err
	}
	f.conf = math.Float64frombits(binary.LittleEndian.Uint64(cb[:]))
	added, err := binary.ReadUvarint(sr)
	if err != nil {
		return f, err
	}
	removed, err := binary.ReadUvarint(sr)
	if err != nil {
		return f, err
	}
	f.addedAt, f.removedAt = Epoch(added), Epoch(removed)
	return f, nil
}

// validateFactEpochs checks a v2 fact's lifespan against the snapshot
// watermark: the fact became live at a real epoch, and if tombstoned,
// strictly after it was added and no later than the watermark.
func validateFactEpochs(f fact, watermark Epoch) error {
	if f.addedAt == 0 || f.addedAt > watermark {
		return fmt.Errorf("addedAt epoch %d outside (0, %d]", f.addedAt, watermark)
	}
	if f.removedAt != 0 && (f.removedAt <= f.addedAt || f.removedAt > watermark) {
		return fmt.Errorf("removedAt epoch %d outside (%d, %d]", f.removedAt, f.addedAt, watermark)
	}
	return nil
}
