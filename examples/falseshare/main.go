// Falseshare: the experiment the paper opens with. Two hosts each write
// their own variable, but the variables live on the same physical page.
//
// Under the traditional page-based layout the page ping-pongs between the
// writers on every exchange (false sharing). Under MultiView each
// variable is a minipage with independent protection, so after one
// ownership transfer apiece the hosts never communicate again. (See
// internal/examples.FalseShare for the body.)
//
// Usage: falseshare [millipage|ivy|lrc|lrc-mw]
//
// The layout is millipage's option; under the other protocols the program
// prints their one run (ivy ping-pongs, the lrc pair's twins do not).
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
	if _, err := examples.FalseShare(protocol, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
