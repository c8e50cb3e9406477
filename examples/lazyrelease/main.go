// Lazyrelease demonstrates the paper's Section-5 extension: multi-writer
// lazy release consistency over chunked minipages.
//
// Four hosts write interleaved slots that chunking has packed into the
// same minipages. Under Millipage's sequential consistency the writers
// would invalidate each other on every exchange; under LRC each host
// writes a local twin and the run-length diffs merge at the barrier —
// false sharing inside the chunk costs nothing between synchronization
// points. The program is data-race-free, so it also runs under the
// other protocols for comparison. (See internal/examples.LazyRelease
// for the body.)
//
// Usage: lazyrelease [millipage|ivy|lrc-mw]  (default lrc-mw)
package main

import (
	"log"
	"os"

	"millipage/internal/examples"
)

func main() {
	protocol := "lrc-mw"
	if len(os.Args) > 1 {
		protocol = os.Args[1]
	}
	if _, err := examples.LazyRelease(protocol, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
