//go:build race

package hfmin

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
