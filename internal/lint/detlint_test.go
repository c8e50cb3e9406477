package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalIsDeterministic is the lint gate: no simulation code under
// internal/ may read the wall clock, draw from the global RNG, import
// sync or sync/atomic, or iterate a map without either sorting or a
// //detlint:ok exemption. The sync exemptions are the two places a second
// goroutine exists: sim's idle-carrier list and bench's replica sweep.
func TestInternalIsDeterministic(t *testing.T) {
	root, err := filepath.Abs("..")
	must(t, err)
	findings, err := check(root)
	must(t, err)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d determinism hazard(s); fix or annotate //detlint:ok <reason>", len(findings))
	}
}

// writeFixture lays out a throwaway package and returns its directory.
func writeFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644))
	return dir
}

func rules(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func TestCheckFlagsHazards(t *testing.T) {
	dir := writeFixture(t, `package fix

import (
	"math/rand"
	"time"
)

func bad() int64 {
	m := map[int]int{1: 2}
	s := 0
	for k := range m {
		s += k
	}
	return time.Now().UnixNano() + int64(rand.Intn(10)) + int64(s)
}
`)
	fs, err := check(dir)
	must(t, err)
	got := strings.Join(rules(fs), ",")
	if got != "map-range,time-now,global-rand" {
		t.Fatalf("rules = %q, want map-range,time-now,global-rand\nfindings: %v", got, fs)
	}
}

func TestCheckAllowsSeededRandAndDirectives(t *testing.T) {
	dir := writeFixture(t, `package fix

import "math/rand"

func good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	m := map[int]int{1: 2}
	s := 0
	for k := range m { //detlint:ok commutative sum
		s += k
	}
	//detlint:ok keys feed a sorted slice
	for k := range m {
		s += k
	}
	return r.Intn(10) + s
}
`)
	fs, err := check(dir)
	must(t, err)
	if len(fs) != 0 {
		t.Fatalf("false positives: %v", fs)
	}
}

func TestCheckIgnoresShadowedImports(t *testing.T) {
	dir := writeFixture(t, `package fix

type clock struct{}

func (clock) Now() int { return 0 }

func good() int {
	var time clock
	return time.Now()
}
`)
	fs, err := check(dir)
	must(t, err)
	if len(fs) != 0 {
		t.Fatalf("false positives on shadowed identifier: %v", fs)
	}
}

// TestCheckFlagsSyncImports: a lock in simulation code is a finding
// unless the import says who the second runner is; test files may
// synchronize freely.
func TestCheckFlagsSyncImports(t *testing.T) {
	dir := writeFixture(t, `package fix

import (
	"sync"
	"sync/atomic"
)

var mu sync.Mutex
var n atomic.Int64
`)
	testFile := `package fix

import "sync"

var wg sync.WaitGroup
`
	must(t, os.WriteFile(filepath.Join(dir, "fix_test.go"), []byte(testFile), 0o644))
	fs, err := check(dir)
	must(t, err)
	if got := strings.Join(rules(fs), ","); got != "sync-import,sync-import" {
		t.Fatalf("rules = %q, want sync-import,sync-import (fix.go only)\nfindings: %v", got, fs)
	}

	dir = writeFixture(t, `package fix

import (
	"sync" //detlint:ok the list is shared by engines on other goroutines
	"sync/atomic"
)

var mu sync.Mutex
var n atomic.Int64
`)
	if fs, err = check(dir); err != nil || len(fs) != 0 {
		t.Fatalf("suppressed imports still reported: %v, %v", fs, err)
	}
}
