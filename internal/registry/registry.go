// Package registry is the one place a protocol name becomes a running
// system. The root package, the model checker, the CLIs and the
// conformance suites all build through it, so a protocol is added (or
// removed) by editing the table below and nothing else.
package registry

import (
	"fmt"
	"strings"

	"millipage/internal/cluster"
	"millipage/internal/core"
	"millipage/internal/dsm"
	"millipage/internal/lrc"
)

// Options is the configuration every protocol is built from.
type Options = cluster.Options

// Spec describes one registered protocol.
type Spec struct {
	Name string

	// SC reports the consistency contract: true means sequentially
	// consistent for every program; false means sequentially consistent
	// for data-race-free programs only (DRF-SC) — callers must then
	// synchronize through Barrier/Lock and never spin on shared memory.
	SC bool

	New func(Options) (cluster.System, error)
}

var specs = []Spec{
	{"millipage", true, build(dsm.New)},
	{"ivy", true, ivy},
	{"lrc-mw", false, build(lrc.NewMW)},
}

// build adapts a protocol's typed constructor; a failed construction must
// come back as a nil interface, not a nil pointer inside one.
func build[S cluster.System](mk func(Options) (S, error)) func(Options) (cluster.System, error) {
	return func(opt Options) (cluster.System, error) {
		s, err := mk(opt)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// ivy is the Li/Hudak page-based baseline as a preset of millipage: the
// sharing unit is the page and page p's directory is served at host p mod
// N (Li & Hudak's "fixed distributed manager"). The two are the preset, so
// a caller may not set them.
func ivy(opt Options) (cluster.System, error) {
	switch {
	case opt.Grain != core.GrainMinipage:
		return nil, fmt.Errorf("ivy: Grain is set (PageGranularity), but ivy is millipage at page grain already")
	case opt.HomeOf != nil:
		return nil, fmt.Errorf("ivy: HomeOf is set (HomeBasedManagement), but ivy homes page p at host p mod N already")
	}
	opt.Grain, opt.HomeOf = core.GrainPage, cluster.HomeMod
	return build(dsm.New)(opt)
}

// Names lists the registered protocols in their canonical order.
func Names() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names
}

// Lookup resolves a protocol name, case-insensitively; "" means
// "millipage" and "lrc" is an alias of "lrc-mw". "lrc" named single-writer
// lazy release consistency, deleted because lrc-mw beat it on every
// serving row and it lost a data-race-free write at a lock acquire
// (check.DirtyAcquire); the frozen benchmark module still builds its
// lrc.pingpong group by that name.
func Lookup(name string) (Spec, error) {
	want := strings.ToLower(name)
	switch want {
	case "":
		want = "millipage"
	case "lrc":
		want = "lrc-mw"
	}
	for _, sp := range specs {
		if sp.Name == want {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown protocol %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// New builds the named protocol's system from opt.
func New(name string, opt Options) (cluster.System, error) {
	sp, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return sp.New(opt)
}
