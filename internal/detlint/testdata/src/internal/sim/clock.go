// clock.go is the second file of the sim fixture package: multi-file
// packages must type-check as a unit and report per-file positions.
package sim

import "time"

// wallRead reads the host clock in a critical package.
func wallRead() time.Time {
	return time.Now() // want `time\.Now in determinism-critical package`
}

// wallWait sleeps and measures on the host clock.
func wallWait(start time.Time) time.Duration {
	time.Sleep(time.Millisecond) // want `time\.Sleep`
	return time.Since(start)     // want `time\.Since`
}

// deterministicTime uses only pure constructors/arithmetic: clean.
func deterministicTime() time.Time {
	return time.Unix(0, 0).Add(3 * time.Second)
}

// allowedWall carries a reasoned exemption.
func allowedWall() time.Time {
	//detlint:allow wallclock fixture exercises the suppression path
	return time.Now()
}

// crossFile uses a type declared in maps.go: the two files really are one
// type-checked package.
func crossFile(s stats) int { return s.n }
