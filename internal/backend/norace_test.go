//go:build !race

package backend

const raceEnabled = false
