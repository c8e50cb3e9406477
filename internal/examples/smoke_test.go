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
		"millipage": {elapsedNS: 18469760, digest: 0x5d6e44604d5356e9},
		"ivy":       {elapsedNS: 22327884, digest: 0xc57a633e9fab918e},
		"lrc-mw":    {elapsedNS: 11788110, digest: 0x43d0cf19537a556b},
	}},
	{name: "falseshare", run: FalseShare, golden: map[string]golden{
		"millipage": {elapsedNS: 42883570, digest: 0x6cc60a926269c1cd},
		"ivy":       {elapsedNS: 84907345, digest: 0x713a17e1bc234410},
		"lrc-mw":    {elapsedNS: 41732500, digest: 0x6c1017990b472b93},
	}},
	{name: "histogram", run: Histogram, golden: map[string]golden{
		"millipage": {elapsedNS: 15886375, digest: 0x5334f97892e2c90d},
		"ivy":       {elapsedNS: 41116217, digest: 0xe0d39143eaa1b3ac},
		"lrc-mw":    {elapsedNS: 10961205, digest: 0xbbea382d74761067},
	}},
	{name: "lazyrelease", run: LazyRelease, golden: map[string]golden{
		"millipage": {elapsedNS: 29017264, digest: 0xad0e1633ae760a6e},
		"ivy":       {elapsedNS: 45559278, digest: 0xead0c6394f458e07},
		"lrc-mw":    {elapsedNS: 22772941, digest: 0x0f4a5dfd954abd5d},
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
