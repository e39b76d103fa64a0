//go:build !race

package gpu

const raceEnabled = false
