package examples

import (
	"bytes"
	"hash/fnv"
	"io"
	"testing"

	"millipage/internal/registry"
	"millipage/internal/sim"
)

// golden pins one (example, protocol) run: the elapsed virtual time in
// nanoseconds and an FNV-1a/64 digest of the program's entire text
// output. Any drift in protocol timing, message counts or program
// results shows up here.
type golden struct {
	elapsedNS int64
	digest    uint64
}

var exampleSmoke = []struct {
	name   string
	run    Example
	golden map[string]golden
}{
	{name: "quickstart", run: Quickstart, golden: map[string]golden{
		"millipage": {elapsedNS: 18513564, digest: 0xb72a594aa3712b99},
		"ivy":       {elapsedNS: 22327884, digest: 0xc57a633e9fab918e},
		"lrc-mw":    {elapsedNS: 13677218, digest: 0x6188b8bf20720928},
	}},
	{name: "falseshare", run: FalseShare, golden: map[string]golden{
		"millipage": {elapsedNS: 42890570, digest: 0xf3da425141b65a59},
		"ivy":       {elapsedNS: 84907345, digest: 0x713a17e1bc234410},
		"lrc-mw":    {elapsedNS: 41732500, digest: 0x6c1017990b472b93},
	}},
	{name: "histogram", run: Histogram, golden: map[string]golden{
		"millipage": {elapsedNS: 17130674, digest: 0x1754937f5345594a},
		"ivy":       {elapsedNS: 41116217, digest: 0xe0d39143eaa1b3ac},
		"lrc-mw":    {elapsedNS: 10961205, digest: 0xbbea382d74761067},
	}},
	{name: "lazyrelease", run: LazyRelease, golden: map[string]golden{
		"millipage": {elapsedNS: 27255393, digest: 0xab83f08930399638},
		"ivy":       {elapsedNS: 45559278, digest: 0xead0c6394f458e07},
		"lrc-mw":    {elapsedNS: 23664798, digest: 0x918e57319c1c1a06},
	}},
}

// TestExamplesSmoke runs every examples/ program headless under every
// protocol, and the "lrc" alias, and pins golden virtual-time digests:
// the alias's are lrc-mw's.
func TestExamplesSmoke(t *testing.T) {
	for _, ex := range exampleSmoke {
		for _, proto := range append(registry.Names(), "lrc") {
			t.Run(ex.name+"/"+proto, func(t *testing.T) {
				var buf bytes.Buffer
				report, err := ex.run(proto, &buf)
				if err != nil {
					t.Fatalf("%s under %s: %v\noutput:\n%s", ex.name, proto, err, buf.String())
				}
				h := fnv.New64a()
				io.WriteString(h, buf.String())
				got := golden{elapsedNS: int64(report.Elapsed), digest: h.Sum64()}
				spec, _ := registry.Lookup(proto)
				want := ex.golden[spec.Name]
				if got != want {
					t.Errorf("%s under %s: got {elapsedNS: %d, digest: %#016x}, pinned {elapsedNS: %d, digest: %#016x} (elapsed %v)",
						ex.name, proto, got.elapsedNS, got.digest, want.elapsedNS, want.digest, sim.Duration(report.Elapsed))
				}
			})
		}
	}
}
