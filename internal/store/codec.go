package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/rdf"
)

// The binary term codec shared by the snapshot and the write-ahead log.
// A term is its kind byte and three uvarint-length-prefixed strings
// (value, datatype, lang); integers are uvarints or zig-zag varints, as
// binary.AppendUvarint and binary.AppendVarint write them, and a float
// is its 8 IEEE-754 bytes, little-endian.

// AppendTerm appends the encoding of t to b.
func AppendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = appendString(b, t.Value)
	b = appendString(b, t.Datatype)
	return appendString(b, t.Lang)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

var errVarintOverflow = errors.New("varint overflows 64 bits")

// Cursor decodes fields from a byte slice held in memory. The first
// truncated or malformed field sets Err and empties the input, so every
// later read returns zero and callers check Err once per record.
type Cursor struct {
	b   []byte // unread input
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err returns the first decoding error, nil if every read succeeded.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) }

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	switch {
	case n == 0:
		c.fail(io.ErrUnexpectedEOF)
	case n < 0:
		c.fail(errVarintOverflow)
	default:
		c.b = c.b[n:]
	}
	return v
}

// Varint reads a zig-zag varint, as binary.AppendVarint writes it.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// take reads the next n bytes, nil when fewer are left. The result
// aliases the input.
func (c *Cursor) take(n uint64) []byte {
	if n > uint64(len(c.b)) {
		c.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Float64 reads an 8-byte little-endian IEEE-754 float.
func (c *Cursor) Float64() float64 {
	if p := c.take(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (c *Cursor) str() string { return string(c.take(c.Uvarint())) }

// Term reads a term as AppendTerm writes it. Its strings are copies, not
// aliases of the input. A kind byte beyond rdf.Blank fails the cursor.
func (c *Cursor) Term() rdf.Term {
	var t rdf.Term
	kind := c.Byte()
	if c.err != nil {
		return t
	}
	if kind > byte(rdf.Blank) {
		c.fail(fmt.Errorf("invalid term kind %d", kind))
		return t
	}
	t.Kind = rdf.TermKind(kind)
	t.Value = c.str()
	t.Datatype = c.str()
	t.Lang = c.str()
	return t
}
