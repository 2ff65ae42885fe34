//go:build race

package netsim

// raceEnabled reports that the race detector is active. Its
// instrumentation adds allocations, so strict allocation-count
// assertions are skipped.
const raceEnabled = true
