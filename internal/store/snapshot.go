package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
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
// Both directions work on byte slices. Encode appends records into one
// bounded block (snapshotBlock), folds each block into the CRC and
// writes it, and writes the trailer last, so a save never holds the
// whole snapshot. Load reads its input once and decodes it with a slice
// cursor, checks the CRC over the consumed prefix against the trailer
// (bytes after the trailer are ignored), sizes the dictionary, fact
// table and dedup index from the header counts and builds each posting
// index in one counting pass.
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

// snapshotBlock bounds Encode's output buffer. Records never straddle
// blocks, so a block outgrows it only to hold a term longer than that.
const snapshotBlock = 1 << 16

// Encoded record sizes. A fact is three term ids, two chronons, the
// confidence and two epochs; a term is its kind and three
// length-prefixed strings. Encode keeps room for the longest fact; Load
// bounds the counts it presizes for by the shortest records.
const (
	maxFactRecord = 7*binary.MaxVarintLen64 + 8
	minFactRecord = 15
	minTermRecord = 4
)

// Encode writes the snapshot in TQS2 format. It holds no locks. A block
// is folded into the CRC and written whenever the next record might not
// fit in it.
func (sn *Snapshot) Encode(w io.Writer) error {
	b := make([]byte, 0, snapshotBlock)
	var crc uint32
	flush := func() error {
		crc = crc32.Update(crc, snapshotCRC, b)
		_, err := w.Write(b)
		b = b[:0]
		return err
	}
	b = append(b, snapshotMagicV2[:]...)
	b = binary.AppendUvarint(b, uint64(sn.epoch))
	b = binary.AppendUvarint(b, uint64(len(sn.terms)-1))
	for _, t := range sn.terms[1:] {
		if len(b)+1+3*binary.MaxVarintLen64+len(t.Value)+len(t.Datatype)+len(t.Lang) > snapshotBlock {
			if err := flush(); err != nil {
				return fmt.Errorf("store: snapshot: %w", err)
			}
		}
		b = AppendTerm(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(sn.facts)))
	for i := range sn.facts {
		if len(b)+maxFactRecord > snapshotBlock {
			if err := flush(); err != nil {
				return fmt.Errorf("store: snapshot: %w", err)
			}
		}
		f := &sn.facts[i]
		b = binary.AppendUvarint(b, uint64(f.s))
		b = binary.AppendUvarint(b, uint64(f.p))
		b = binary.AppendUvarint(b, uint64(f.o))
		b = binary.AppendVarint(b, f.iv.Start)
		b = binary.AppendVarint(b, f.iv.End)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.conf))
		b = binary.AppendUvarint(b, uint64(f.addedAt))
		b = binary.AppendUvarint(b, uint64(f.removedAt))
	}
	crc = crc32.Update(crc, snapshotCRC, b)
	b = binary.LittleEndian.AppendUint32(b, crc) // trailer is outside the CRC
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// Save writes a binary snapshot of the store in the current (TQS2)
// format. The store is pinned for one brief read-locked copy; the
// serialization itself runs without blocking writers.
func (st *Store) Save(w io.Writer) error {
	return st.Checkpoint().Encode(w)
}

// termID reads a term reference, validated against the dictionary size.
func (c *Cursor) termID(dictLen int) TermID {
	v := c.Uvarint()
	if c.err == nil && (v == 0 || v > uint64(dictLen)) {
		c.fail(fmt.Errorf("term id %d out of range", v))
	}
	return TermID(v)
}

func (c *Cursor) fact(dictLen int) (fact, error) {
	var f fact
	f.s = c.termID(dictLen)
	f.p = c.termID(dictLen)
	f.o = c.termID(dictLen)
	f.iv.Start = c.Varint()
	f.iv.End = c.Varint()
	f.conf = c.Float64()
	f.addedAt = Epoch(c.Uvarint())
	f.removedAt = Epoch(c.Uvarint())
	return f, c.err
}

// preallocCap caps count-driven allocation so a corrupt header cannot
// over-allocate: Load passes the most records the unread input could
// hold, so a larger count sizes the tables to that bound and decoding
// fails on the truncation instead.
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
// store. The input is read whole, then decoded in place.
func Load(r io.Reader) (*Store, error) {
	data, err := readSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	st, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	return st, nil
}

// readSnapshot reads r to EOF, in one allocation when r reports its
// size: an in-memory reader through Len, a file through Stat.
func readSnapshot(r io.Reader) ([]byte, error) {
	var size int64
	switch r := r.(type) {
	case interface{ Len() int }:
		size = int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil {
			size = fi.Size()
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeSnapshot rebuilds the exact fact table — ids, tombstones,
// lifespans — from a whole TQS2 snapshot and verifies the checksum over
// the bytes it consumed; anything after the trailer is ignored.
func decodeSnapshot(data []byte) (*Store, error) {
	if len(data) < len(snapshotMagicV2) {
		return nil, io.ErrUnexpectedEOF
	}
	if magic := [4]byte(data); magic != snapshotMagicV2 {
		return nil, fmt.Errorf("unsupported snapshot version or bad magic %q", magic[:])
	}
	c := NewCursor(data[len(snapshotMagicV2):])
	st := New()
	st.epoch = Epoch(c.Uvarint())
	st.compacted = st.epoch
	termCount := c.Uvarint()
	if c.err != nil {
		return nil, c.err
	}
	n := preallocCap(termCount, len(c.b)/minTermRecord)
	st.dict.byHash = make(map[uint64]TermID, n)
	st.dict.toT = make([]rdf.Term, 1, 1+n)
	// Term converts every string afresh, so the dictionary need not
	// copy them again.
	st.dict.own = false
	for i := uint64(0); i < termCount; i++ {
		t := c.Term()
		if c.err != nil {
			return nil, fmt.Errorf("term %d: %w", i, c.err)
		}
		if id := st.dict.Encode(t); uint64(id) != i+1 {
			// A duplicate term collapsed to an earlier code: the snapshot
			// is corrupt and every later term reference would be shifted.
			return nil, fmt.Errorf("term %d: duplicate of code %d", i, id)
		}
	}
	st.dict.own = true
	factCount := c.Uvarint()
	if c.err != nil {
		return nil, c.err
	}
	n = preallocCap(factCount, len(c.b)/minFactRecord)
	st.facts = make([]fact, 0, n)
	st.byFact = make(map[uint64]FactID, n)
	dictLen := st.dict.Len()
	for i := uint64(0); i < factCount; i++ {
		f, err := c.fact(dictLen)
		if err == nil {
			err = validateFactEpochs(f, st.epoch)
		}
		if err == nil {
			q := rdf.Quad{
				Subject:    st.dict.Decode(f.s),
				Predicate:  st.dict.Decode(f.p),
				Object:     st.dict.Decode(f.o),
				Interval:   f.iv,
				Confidence: f.conf,
			}
			err = q.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("fact %d: %w", i, err)
		}
		key := factKey{s: f.s, p: f.p, o: f.o, iv: f.iv}
		if _, ok := st.lookupFactLocked(key); ok {
			return nil, fmt.Errorf("fact %d: duplicate statement", i)
		}
		st.insertFactLocked(key, FactID(len(st.facts)))
		st.facts = append(st.facts, f)
		if f.removedAt != 0 {
			st.dead++
		}
	}
	if len(c.b) < 4 {
		return nil, fmt.Errorf("checksum trailer: %w", io.ErrUnexpectedEOF)
	}
	want := crc32.Checksum(data[:len(data)-len(c.b)], snapshotCRC)
	if got := binary.LittleEndian.Uint32(c.b); got != want {
		return nil, fmt.Errorf("checksum mismatch (have %08x, computed %08x)", got, want)
	}
	st.byS = buildPosting(st.facts, dictLen, func(f *fact) TermID { return f.s })
	st.byP = buildPosting(st.facts, dictLen, func(f *fact) TermID { return f.p })
	st.byO = buildPosting(st.facts, dictLen, func(f *fact) TermID { return f.o })
	return st, nil
}

// buildPosting builds one position's posting index over a loaded fact
// table in a counting pass. Every list is an exact window of one shared
// backing array, capacity-clipped so a later append reallocates that
// list alone instead of overwriting its neighbour; ids are ascending, as
// addPosting leaves them, and the index covers exactly the codes
// addPosting would have.
func buildPosting(facts []fact, dictLen int, pos func(*fact) TermID) [][]FactID {
	// off[t+1] counts code t's facts; the prefix sum turns off[t] into
	// the start of t's list, and the fill below advances it to its end.
	off := make([]int32, dictLen+2)
	for i := range facts {
		off[pos(&facts[i])+1]++
	}
	n := 0
	for t := 1; t <= dictLen; t++ {
		if off[t+1] > 0 {
			n = t + 1
		}
		off[t+1] += off[t]
	}
	back := make([]FactID, len(facts))
	for i := range facts {
		t := pos(&facts[i])
		back[off[t]] = FactID(i)
		off[t]++
	}
	idx := make([][]FactID, n)
	for t := 1; t < n; t++ {
		if lo, hi := off[t-1], off[t]; hi > lo {
			idx[t] = back[lo:hi:hi]
		}
	}
	return idx
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
