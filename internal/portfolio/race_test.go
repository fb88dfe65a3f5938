//go:build race

package portfolio

// raceEnabled reports whether the tests run under the race detector, which
// slows the Table 9 simulations about 17×.
const raceEnabled = true
