package engine

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestExactSum checks the accumulator against math/big:
// the total is the exact sum rounded once to nearest even, whatever the
// order of the additions, and subtracting what was added restores the
// previous state bit for bit.
func TestExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000)) // subnormal
		case 1:
			return math.Ldexp(rng.Float64(), -1000-rng.Intn(20))
		case 2:
			return math.Ldexp(1+rng.Float64(), rng.Intn(64))
		case 3:
			return math.Ldexp(math.MaxFloat64, -20-rng.Intn(10))
		default:
			return rng.Float64() + 1e-9 // a confidence in (0,1]
		}
	}
	want := func(xs []float64) float64 {
		acc := new(big.Float).SetPrec(2200)
		for _, x := range xs {
			acc.Add(acc, new(big.Float).SetFloat64(x))
		}
		f, _ := acc.Float64()
		return f
	}
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = draw()
		}
		var s ExactSum
		for _, x := range xs {
			s.Add(x)
		}
		if got, w := s.Float64(), want(xs); got != w {
			t.Fatalf("trial %d: sum of %v = %v, want %v", trial, xs, got, w)
		}
		before := s
		extra := make([]float64, rng.Intn(10))
		for i := range extra {
			extra[i] = draw()
			s.Add(extra[i])
		}
		rng.Shuffle(len(extra), func(i, j int) { extra[i], extra[j] = extra[j], extra[i] })
		for _, x := range extra {
			s.Sub(x)
		}
		if s != before {
			t.Fatalf("trial %d: adding then subtracting %v changed the accumulator", trial, extra)
		}
		var r ExactSum
		for _, i := range rng.Perm(len(xs)) {
			r.Add(xs[i])
		}
		if r != s {
			t.Fatalf("trial %d: a different order of %v gave a different accumulator", trial, xs)
		}
	}
	var zero ExactSum
	if zero.Float64() != 0 {
		t.Fatal("empty sum is not 0")
	}
}
