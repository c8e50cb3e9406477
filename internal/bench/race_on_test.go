//go:build race

package bench

// race reports a race-detector build, under which sync.Pool drops a
// random share of what it is handed: allocation counts do not repeat.
const race = true
