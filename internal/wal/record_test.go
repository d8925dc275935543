package wal

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/temporal"
)

// TestRecordBytesPinned pins the framed encoding of one add and one
// remove record byte for byte, so a codec change cannot silently change
// what a log written by an earlier build means. Each record must also
// decode back to itself, consuming every byte.
func TestRecordBytesPinned(t *testing.T) {
	add := store.JournalRecord{
		Change: store.Change{Epoch: 3, Op: store.OpAdd, ID: 2},
		Quad: rdf.Quad{
			Subject:    rdf.NewIRI("CR"),
			Predicate:  rdf.NewIRI("coach"),
			Object:     rdf.Term{Kind: rdf.Literal, Value: "Napoli", Lang: "it"},
			Interval:   temporal.MustNew(2001, 2003),
			Confidence: 0.6,
		},
	}
	remove := store.JournalRecord{Change: store.Change{Epoch: 300, Op: store.OpRemove, ID: 2}}
	for _, tc := range []struct {
		name string
		rec  store.JournalRecord
		hex  []string // length prefix, payload fields, CRC-32C trailer
	}{
		{"add", add, []string{
			"2a",             // payload length 42
			"00",             // op: add
			"03",             // epoch 3
			"02",             // fact id 2
			"00024352",       // subject: IRI, "CR"
			"0000",           // no datatype, no lang
			"0005636f616368", // predicate: IRI, "coach"
			"0000",
			"01064e61706f6c69", // object: literal, "Napoli"
			"00026974",         // no datatype, lang "it"
			"a21f",             // start 2001, zig-zag varint
			"a61f",             // end 2003
			"333333333333e33f", // confidence 0.6, LE float64
			"afdb8169",         // CRC-32C of the payload, LE
		}},
		{"remove", remove, []string{
			"04",       // payload length 4
			"01",       // op: remove
			"ac02",     // epoch 300
			"02",       // fact id 2
			"eeb7b09f", // CRC-32C of the payload, LE
		}},
	} {
		got := appendRecord(nil, tc.rec)
		want, err := hex.DecodeString(strings.Join(tc.hex, ""))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s record encodes as\n%x, want\n%x", tc.name, got, want)
		}
		rec, n, err := decodeRecord(got)
		if err != nil || n != len(got) || !reflect.DeepEqual(rec, tc.rec) {
			t.Fatalf("%s record decodes to %+v (%d of %d bytes, %v)", tc.name, rec, n, len(got), err)
		}
	}
}
