package examples

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"millipage/internal/pins"
	"millipage/internal/registry"
)

var examples = []struct {
	name string
	run  Example
}{{"quickstart", Quickstart}, {"falseshare", FalseShare}, {"histogram", Histogram}, {"lazyrelease", LazyRelease}}

// TestExamplesSmoke runs every examples/ program headless under every
// protocol, and the "lrc" alias, to its own result check, and pins its
// elapsed virtual time and an FNV-1a/64 digest of its entire text output:
// any drift in protocol timing, message counts or program results shows
// here. The alias's pins are lrc-mw's.
func TestExamplesSmoke(t *testing.T) {
	for _, ex := range examples {
		for _, proto := range append(registry.Names(), "lrc") {
			t.Run(ex.name+"/"+proto, func(t *testing.T) {
				var buf bytes.Buffer
				report, err := ex.run(proto, &buf)
				if err != nil {
					t.Fatalf("%s under %s: %v\noutput:\n%s", ex.name, proto, err, buf.String())
				}
				h := fnv.New64a()
				io.WriteString(h, buf.String())
				spec, _ := registry.Lookup(proto)
				pins.Check(t, "ExamplesSmoke/"+ex.name+"/"+spec.Name, fmt.Sprintf("elapsed=%d digest=%#x", int64(report.Elapsed), h.Sum64()))
			})
		}
	}
}
