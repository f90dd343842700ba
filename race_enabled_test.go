//go:build race

package gbkmv_test

// raceEnabled reports whether the race detector is instrumenting this test
// binary. Allocation-count assertions are skipped under race: the detector
// adds its own allocations and makes sync.Pool intentionally lossy.
const raceEnabled = true
