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
		"millipage": {elapsedNS: 13395484, digest: 0x7f1b0a1a819be187},
		"ivy":       {elapsedNS: 17039432, digest: 0xed4c0e67f87f14ca},
		"lrc-mw":    {elapsedNS: 10194376, digest: 0x6db5b2ab0710c85f},
	}},
	{name: "falseshare", run: FalseShare, golden: map[string]golden{
		"millipage": {elapsedNS: 41661611, digest: 0x4d63670449f56e60},
		"ivy":       {elapsedNS: 86578603, digest: 0xcd3c5d56df57095f},
		"lrc-mw":    {elapsedNS: 40206664, digest: 0x15de8b345aceb367},
	}},
	{name: "histogram", run: Histogram, golden: map[string]golden{
		"millipage": {elapsedNS: 12629704, digest: 0xcb3eb085e4e8d594},
		"ivy":       {elapsedNS: 27711224, digest: 0xfde8145c57e973d6},
		"lrc-mw":    {elapsedNS: 11362244, digest: 0x6d78734fe2ec1571},
	}},
	{name: "lazyrelease", run: LazyRelease, golden: map[string]golden{
		"millipage": {elapsedNS: 27774088, digest: 0xd36e44284db4c702},
		"ivy":       {elapsedNS: 46042454, digest: 0x26af3085741afd2b},
		"lrc-mw":    {elapsedNS: 20937389, digest: 0xed8c486851898f4f},
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
