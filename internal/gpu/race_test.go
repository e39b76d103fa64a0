//go:build race

package gpu

// raceEnabled reports a -race build, whose detector drops sync.Pool items at
// random, so a pooled machine is sometimes rebuilt.
const raceEnabled = true
