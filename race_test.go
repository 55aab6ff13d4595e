//go:build race

package emlrtm

// raceEnabled reports whether the test binary runs under the race
// detector, which changes sync.Pool behaviour and so allocation counts.
const raceEnabled = true
