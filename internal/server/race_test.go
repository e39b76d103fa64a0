//go:build race

package server

// raceEnabled reports a -race build, whose detector drops sync.Pool items at
// random, so allocation pins do not hold there.
const raceEnabled = true
