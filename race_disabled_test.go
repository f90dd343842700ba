//go:build !race

package gbkmv_test

// raceEnabled reports whether the race detector is instrumenting this test
// binary; see race_enabled_test.go.
const raceEnabled = false
