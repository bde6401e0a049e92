// Package nowallclock is the golden corpus of the nowallclock rule:
// wall-clock readings and rand imports in a determinism-critical
// package (testdata packages always count as critical).
package nowallclock

import (
	"math/rand" // want `imports math/rand`
	"time"
)

// stamp reads the wall clock on the (stand-in) match path.
func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in determinism-critical package`
}

// jitter keeps the banned import in use; the rule flags the import
// site itself.
func jitter() int { return rand.Int() }

// elapsed carries a justified suppression.
func elapsed(t0 time.Time) time.Duration {
	//minoaner:wallclock golden corpus: instrumentation that never influences results
	return time.Since(t0)
}

// add is plain arithmetic on time values: no clock is read.
func add(t time.Time, d time.Duration) time.Time { return t.Add(d) }
