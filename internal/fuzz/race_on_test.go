//go:build race

package fuzz

// raceEnabled reports a race-detector build, whose sync.Pool drops a Put at
// random and whose hooks run too slowly for the PM-aware wait timers.
const raceEnabled = true
