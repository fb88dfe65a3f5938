//go:build race

package scenario

// raceEnabled reports whether the tests run under the race detector, under
// which a run allocates more.
const raceEnabled = true
