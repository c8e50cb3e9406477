// Histogram: a parallel reduction in the style of the paper's IS
// benchmark. Eight hosts histogram a large key stream into a shared
// 2 KB array that is split into per-host 256-byte regions — each region
// its own minipage — and combined with a skewed all-to-all schedule so
// every region has exactly one writer per phase and no locks are needed.
//
// It also demonstrates Prefetch: each host prefetches its next region
// while still summing the current one. (See internal/examples.Histogram
// for the body.)
//
// Usage: histogram [millipage|ivy|lrc-mw]
package main

import (
	"log"
	"os"

	"millipage/internal/examples"
)

func main() {
	protocol := "millipage"
	if len(os.Args) > 1 {
		protocol = os.Args[1]
	}
	if _, err := examples.Histogram(protocol, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
