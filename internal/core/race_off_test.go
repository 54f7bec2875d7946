//go:build !race

package core

// raceEnabled lets allocation-pin tests skip under the race detector,
// whose instrumentation distorts allocation accounting.
const raceEnabled = false
