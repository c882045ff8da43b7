package bench

import "time"

// elapsed runs f and returns its wall-clock time to the 100 µs: the figures'
// one timed column, "elapsed (not bounded)". It is the package's only clock
// read, and no test reads what it returns; the figures' claims rest on
// counted work.
func elapsed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start).Round(100 * time.Microsecond)
}
