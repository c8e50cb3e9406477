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
		"millipage": {elapsedNS: 17668492, digest: 0x95d11686a024887f},
		"ivy":       {elapsedNS: 21404820, digest: 0xf9857e7aa9db03fb},
		"lrc-mw":    {elapsedNS: 11970583, digest: 0xb24f3ffeb27eae66},
	}},
	{name: "falseshare", run: FalseShare, golden: map[string]golden{
		"millipage": {elapsedNS: 41661611, digest: 0x3c958834a4f5c1ca},
		"ivy":       {elapsedNS: 84907345, digest: 0x713a17e1bc234410},
		"lrc-mw":    {elapsedNS: 40217694, digest: 0xe0c6d1cbade376cf},
	}},
	{name: "histogram", run: Histogram, golden: map[string]golden{
		"millipage": {elapsedNS: 12767564, digest: 0x3b31fef7c48a6701},
		"ivy":       {elapsedNS: 28114697, digest: 0xb0896b9633d86c3c},
		"lrc-mw":    {elapsedNS: 11813331, digest: 0x98df684b2024df66},
	}},
	{name: "lazyrelease", run: LazyRelease, golden: map[string]golden{
		"millipage": {elapsedNS: 25729046, digest: 0xba753c8d1e1dd5e7},
		"ivy":       {elapsedNS: 45559278, digest: 0xead0c6394f458e07},
		"lrc-mw":    {elapsedNS: 21447238, digest: 0x1dfa62722b9dd178},
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
