//go:build !race

package db

// raceEnabled reports whether the race detector instruments this build; its
// instrumentation allocates, so allocation-count guards skip under it.
const raceEnabled = false
