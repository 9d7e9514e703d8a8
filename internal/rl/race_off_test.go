//go:build !race

package rl

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
