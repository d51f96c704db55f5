//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector: allocation stops repeating and the heavy cells slow tenfold,
// so the allocation gate skips and the digest test thins its matrix.
const raceEnabled = true
