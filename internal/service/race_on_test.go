//go:build race

package service

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop a random share of what is put
// into it — allocation counts stop repeating.
const raceEnabled = true
