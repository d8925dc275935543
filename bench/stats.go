package main

import (
	"sort"
	"time"
)

// sample is one timed operation: when it started (or, for a paced read,
// when it was due) and when its response had been read and checked.
type sample struct {
	start, end time.Time
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / float64(time.Millisecond) }

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule, 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median averages the two middle values of an even-length slice, so a
// median over few samples (three set-ups, ten blocks) is not one of two
// arbitrary neighbours.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile is the highest of the usual percentiles that still has
// at least ten samples beyond it; with fewer than twenty samples there
// is no tail to speak of and it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// throughputBlocks is the number of equal-count blocks the measured
// phase is cut into for ops_per_s.
const throughputBlocks = 10

// blockMedianThroughput cuts the samples, in the order they ran, into
// throughputBlocks blocks of equal count and returns the median of the
// blocks' throughputs in operations per second of wall time. A
// transient neighbour on the shared host slows one or two blocks and
// leaves the median alone, where a whole-phase mean would absorb it.
func blockMedianThroughput(ss []sample) float64 {
	per := len(ss) / throughputBlocks
	if per == 0 {
		if len(ss) == 0 {
			return 0
		}
		return float64(len(ss)) / ss[len(ss)-1].end.Sub(ss[0].start).Seconds()
	}
	rates := make([]float64, 0, throughputBlocks)
	for b := 0; b < throughputBlocks; b++ {
		lo, hi := b*per, (b+1)*per
		// A block runs from its first op's start to the next block's
		// first start, so work between ops (untimed deletes, client
		// bookkeeping) is counted as wall time a user would wait.
		end := ss[hi-1].end
		if hi < len(ss) {
			end = ss[hi].start
		}
		rates = append(rates, float64(per)/end.Sub(ss[lo].start).Seconds())
	}
	return median(rates)
}
