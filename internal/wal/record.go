package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/store"
)

// Record framing. Each journal record is appended as
//
//	uvarint payloadLen | payload | crc32c(payload) 4B LE
//
// with the payload
//
//	op 1B | uvarint epoch | uvarint factID |
//	[OpAdd only: subject, predicate, object terms |
//	 zig-zag varint start, end | confidence 8B LE]
//
// and each term encoded as kind(1B) + 3 length-prefixed strings (value,
// datatype, lang) by the store's term codec, as in the snapshot. Add records carry the full quad — a fresh insert, a
// revival and a confidence raise all replay through store.Add with that
// payload — so the log is self-contained: no dictionary state is needed
// to read it. Remove records carry only the fact id.
//
// The length prefix makes the log seekable record-to-record; the
// per-record CRC turns any torn or bit-flipped tail into a clean
// "longest valid prefix" cut at recovery.

var recordCRC = crc32.MakeTable(crc32.Castagnoli)

// maxRecordPayload bounds a single record; anything larger is corrupt
// framing, not data.
const maxRecordPayload = 1 << 28

// appendRecordPayload appends the unframed payload encoding of rec.
func appendRecordPayload(b []byte, rec store.JournalRecord) []byte {
	b = append(b, byte(rec.Change.Op))
	b = binary.AppendUvarint(b, uint64(rec.Change.Epoch))
	b = binary.AppendUvarint(b, uint64(rec.Change.ID))
	if rec.Change.Op == store.OpAdd {
		q := rec.Quad
		b = store.AppendTerm(b, q.Subject)
		b = store.AppendTerm(b, q.Predicate)
		b = store.AppendTerm(b, q.Object)
		b = binary.AppendVarint(b, q.Interval.Start)
		b = binary.AppendVarint(b, q.Interval.End)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.Confidence))
	}
	return b
}

// appendFrame appends the length prefix, payload and CRC trailer to b.
func appendFrame(b, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], crc32.Checksum(payload, recordCRC))
	return append(b, tb[:]...)
}

// appendRecord appends the framed encoding of rec to b.
func appendRecord(b []byte, rec store.JournalRecord) []byte {
	return appendFrame(b, appendRecordPayload(nil, rec))
}

// errTorn marks an incomplete, checksum-failing or unparseable record:
// the durable log ends just before it.
var errTorn = fmt.Errorf("wal: torn record")

// decodeRecord parses the first framed record in data, returning the
// record and the number of bytes consumed. errTorn means the data ends
// in (or is corrupted at) this record: everything before it is the
// longest valid prefix.
func decodeRecord(data []byte) (store.JournalRecord, int, error) {
	var rec store.JournalRecord
	plen, n := binary.Uvarint(data)
	if n <= 0 || plen > maxRecordPayload {
		return rec, 0, errTorn
	}
	total := n + int(plen) + 4
	if total > len(data) {
		return rec, 0, errTorn
	}
	payload := data[n : n+int(plen)]
	want := binary.LittleEndian.Uint32(data[n+int(plen) : total])
	if crc32.Checksum(payload, recordCRC) != want {
		return rec, 0, errTorn
	}
	c := store.NewCursor(payload)
	op, epoch, id := c.Byte(), c.Uvarint(), c.Uvarint()
	if c.Err() != nil || op > byte(store.OpRemove) || id > math.MaxInt32 {
		return rec, 0, errTorn
	}
	rec.Change = store.Change{Epoch: store.Epoch(epoch), Op: store.Op(op), ID: store.FactID(id)}
	if rec.Change.Op == store.OpAdd {
		q := &rec.Quad
		q.Subject, q.Predicate, q.Object = c.Term(), c.Term(), c.Term()
		q.Interval.Start, q.Interval.End = c.Varint(), c.Varint()
		q.Confidence = c.Float64()
	}
	// A cursor error is a truncated or malformed field; bytes left over
	// are trailing garbage inside a "valid" frame.
	if c.Err() != nil || c.Len() != 0 {
		return rec, 0, errTorn
	}
	return rec, total, nil
}
