//go:build race

package backend

// raceEnabled reports a -race build, whose detector drops sync.Pool items at
// random, so a pooled scratch is sometimes rebuilt.
const raceEnabled = true
