//go:build race

package fuzz

// raceEnabled reports a race-detector build, whose sync.Pool drops a Put at
// random.
const raceEnabled = true
