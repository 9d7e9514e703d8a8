//go:build race

package par

// raceEnabled reports whether the race detector is compiled in; the
// allocation-regression tests skip under -race because instrumentation
// changes allocation accounting.
const raceEnabled = true
