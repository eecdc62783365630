//go:build !race

package microrec_test

const raceEnabled = false
