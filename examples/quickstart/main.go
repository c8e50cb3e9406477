// Quickstart: a four-host Millipage cluster sharing a counter and a
// message buffer. Shows allocation, reads/writes, locks and barriers —
// the whole Section 3.4 API surface in one page of code (see
// internal/examples.Quickstart for the body).
//
// Usage: quickstart [millipage|ivy|lrc-mw]
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
	if _, err := examples.Quickstart(protocol, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
