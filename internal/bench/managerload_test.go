package bench

import (
	"bytes"
	"strings"
	"testing"

	"millipage/internal/dsm"
)

func TestManagerLoadSpreadsAcrossHomes(t *testing.T) {
	cfg := DefaultManagerLoad()

	central, err := ManagerLoad(cfg, dsm.HomeCentral)
	must(t, err)
	homed, err := ManagerLoad(cfg, dsm.HomeMod)
	must(t, err)

	// Application results are byte-identical across modes.
	if central.Checksum != homed.Checksum {
		t.Fatalf("checksums differ: central=%#x home-based=%#x", central.Checksum, homed.Checksum)
	}

	// Central: every directory request funnels through host 0.
	if central.PerShard[0] == 0 {
		t.Fatal("central: host 0 served no directory requests")
	}
	for i := 1; i < cfg.Hosts; i++ {
		if central.PerShard[i] != 0 {
			t.Fatalf("central: shard %d served %d requests, want 0", i, central.PerShard[i])
		}
	}
	if r := central.MaxMeanRatio(); r != float64(cfg.Hosts) {
		t.Fatalf("central max/mean = %.2f, want %d", r, cfg.Hosts)
	}

	// Home-based: the write-heavy workload spreads over all eight shards
	// with the busiest one no more than 2x the mean.
	for i := 0; i < cfg.Hosts; i++ {
		if homed.PerShard[i] == 0 {
			t.Fatalf("home-based: shard %d served no requests (per-shard: %v)", i, homed.PerShard)
		}
	}
	if r := homed.MaxMeanRatio(); r > 2 {
		t.Fatalf("home-based max/mean = %.2f, want <= 2 (per-shard: %v)", r, homed.PerShard)
	}
}

func TestManagerLoadCompareOutput(t *testing.T) {
	cfg := ManagerLoadConfig{Hosts: 4, Vars: 16, Rounds: 2, Seed: 5}
	var buf bytes.Buffer
	must(t, ManagerLoadCompare(&buf, cfg))
	out := buf.String()
	for _, want := range []string{"central", "home-based", "max/mean", "identical checksums"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
