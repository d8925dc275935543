//go:build race

package core

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation distorts allocation figures.
const raceEnabled = true
