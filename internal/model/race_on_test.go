//go:build race

package model

// raceEnabled reports that the race detector is on. It multiplies the cost
// of every memory access, so single-goroutine sweeps whose point is not
// concurrency shrink under it.
const raceEnabled = true
