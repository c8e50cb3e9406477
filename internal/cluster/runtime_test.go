// Runtime suites: a System's lifecycle, its option defaults and
// refusals, and its deadlock report, through dsm's exported API.
package cluster_test

import (
	"strings"
	"testing"

	"millipage/internal/core"
	"millipage/internal/dsm"
	"millipage/internal/fastmsg"
	"millipage/internal/faultnet"
	"millipage/internal/vm"
)

// newSys builds an SC cluster named "test".
func newSys(t *testing.T, opt dsm.Options) *dsm.System {
	t.Helper()
	s, err := dsm.New("test", opt)
	must(t, err)
	return s
}

// run runs body on sys and fails the test if Run fails.
func run(t *testing.T, sys *dsm.System, body func(*dsm.Thread)) {
	t.Helper()
	must(t, sys.Run(body))
}

func TestOptionsDefaults(t *testing.T) {
	s := newSys(t, dsm.Options{Hosts: 1, SharedSize: vm.PageSize})
	opt := s.Opt
	if s.Name != "test" || opt.ThreadsPerHost != 1 || opt.Views != 1 || opt.ChunkLevel != 1 ||
		opt.Seed != 1 || opt.HomeOf == nil {
		t.Fatalf("defaults = %+v", opt)
	}
	if opt.Costs == (dsm.Costs{}) || opt.Net == (fastmsg.Params{}) {
		t.Fatal("zero cost/net tables not defaulted")
	}
}

// TestNewRejectsUnrunnableOptions: New is the one validation site. A
// value or combination the protocol cannot run is an error naming every
// field involved — never a panic out of the constructor, never a silent
// degrade.
func TestNewRejectsUnrunnableOptions(t *testing.T) {
	ok := func(mut func(*dsm.Options)) dsm.Options {
		o := dsm.Options{Hosts: 2, SharedSize: vm.PageSize}
		mut(&o)
		return o
	}
	cases := []struct {
		name   string
		opt    dsm.Options
		fields []string
	}{
		{"no hosts", ok(func(o *dsm.Options) { o.Hosts = 0 }), []string{"Hosts"}},
		{"negative hosts", ok(func(o *dsm.Options) { o.Hosts = -1 }), []string{"Hosts"}},
		{"too many hosts", ok(func(o *dsm.Options) { o.Hosts = 1025 }), []string{"Hosts"}},
		{"no shared memory", ok(func(o *dsm.Options) { o.SharedSize = 0 }), []string{"SharedSize"}},
		{"negative threads", ok(func(o *dsm.Options) { o.ThreadsPerHost = -1 }), []string{"ThreadsPerHost"}},
		{"negative chunk level", ok(func(o *dsm.Options) { o.ChunkLevel = -1 }), []string{"ChunkLevel"}},
		{"invalid fault plan", ok(func(o *dsm.Options) { o.Faults = &faultnet.Plan{Drop: 2} }), []string{"Drop"}},
	}
	for _, tc := range cases {
		s, err := dsm.New("test", tc.opt)
		if err == nil || s != nil {
			t.Errorf("%s: New = %v, %v; want an error", tc.name, s, err)
			continue
		}
		for _, f := range tc.fields {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, f)
			}
		}
	}
	if _, err := dsm.New("test", ok(func(o *dsm.Options) {
		o.ThreadsPerHost, o.Grain, o.HomeOf = 2, core.GrainPage, dsm.HomeMod
	})); err != nil {
		t.Errorf("supported options rejected: %v", err)
	}
}
