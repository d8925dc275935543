package engine

import (
	"math"
	"math/bits"
)

// sumWords is the width of an ExactSum: every finite float64 is a whole
// multiple of 2^-1074 below 2^2098, and 32 more bits of headroom hold the
// total of 2^32 such values without overflow.
const sumWords = (2098 + 32 + 63) / 64

// ExactSum adds non-negative finite float64 values without rounding: a
// fixed-point integer in units of 2^-1074, the smallest subnormal. The
// total depends only on the multiset of values added, never on their
// order or grouping, and a value subtracted after it was added leaves no
// trace, so a sum maintained across updates equals one taken from
// scratch bit for bit. Float64 rounds the total once, to nearest even.
// The zero value is the empty sum.
type ExactSum [sumWords]uint64

// split returns x's significand and the position of its lowest bit in
// units of 2^-1074: x = m × 2^(e-1074). The sign bit is ignored.
func split(x float64) (m uint64, e int) {
	b := math.Float64bits(x)
	exp := int(b >> 52 & 0x7ff)
	m = b & (1<<52 - 1)
	if exp == 0 {
		return m, 0 // subnormal
	}
	return m | 1<<52, exp - 1
}

// Add adds x, which must be finite and non-negative.
func (s *ExactSum) Add(x float64) {
	m, e := split(x)
	w, b := e/64, uint(e%64)
	var c uint64
	s[w], c = bits.Add64(s[w], m<<b, 0)
	hi := m >> (64 - b) // 0 when b == 0
	for i := w + 1; i < sumWords && hi|c != 0; i++ {
		s[i], c = bits.Add64(s[i], hi, c)
		hi = 0
	}
}

// Sub subtracts x, which must have been added before.
func (s *ExactSum) Sub(x float64) {
	m, e := split(x)
	w, b := e/64, uint(e%64)
	var c uint64
	s[w], c = bits.Sub64(s[w], m<<b, 0)
	hi := m >> (64 - b)
	for i := w + 1; i < sumWords && hi|c != 0; i++ {
		s[i], c = bits.Sub64(s[i], hi, c)
		hi = 0
	}
}

// Float64 returns the total rounded to the nearest float64, ties to
// even.
func (s *ExactSum) Float64() float64 {
	i := sumWords - 1
	for i > 0 && s[i] == 0 {
		i--
	}
	if i == 0 {
		// Below 2^64 units: float64 rounds to 53 bits and the scaling is
		// exact, the result being either exact or normal.
		return math.Ldexp(float64(s[0]), -1074)
	}
	// The top 64 bits, with a sticky low bit standing for any set bit
	// below them; float64 of that rounds exactly as the full total would.
	lz := uint(bits.LeadingZeros64(s[i]))
	top := s[i]<<lz | s[i-1]>>(64-lz)
	sticky := s[i-1]<<lz != 0
	for j := 0; j < i-1 && !sticky; j++ {
		sticky = s[j] != 0
	}
	if sticky {
		top |= 1
	}
	return math.Ldexp(float64(top), 64*i-int(lz)-1074)
}
