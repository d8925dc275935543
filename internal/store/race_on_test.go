//go:build race

package store

// raceEnabled reports whether the test binary was built with -race. The
// race detector makes sync.Pool drop items at random, so allocation
// gates on pooled buffers only hold without it.
const raceEnabled = true
