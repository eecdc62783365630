//go:build race

package serving

// raceEnabled reports that the race detector is on, under which sync.Pool
// deliberately drops a share of what is put back, so allocation pins on
// pooled paths do not hold.
const raceEnabled = true
