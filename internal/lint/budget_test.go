package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// must fails the test if err is not nil.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// kernelBudget is the ceiling on each kernel package's non-test .go
// lines — what `cat internal/<pkg>/*.go | wc -l` prints with the _test.go
// files left out, the count ROADMAP's "Lines" bullet tracks. It only
// ratchets down: a change that deletes lines lowers its package's ceiling
// to the new count in the same commit, and one that needs a ceiling
// raised says why here and in review. dsm rose 3,328 → 3,342 for
// Thread.Idle (13 lines) and ThreadStats.IdleTime (1): a wait that is not
// computation, so a waiting server's host counts as idle.
var kernelBudget = []struct {
	pkg string
	max int
}{
	{"dsm", 3195},
}

// kernelTarget is the kernel's line total, lowered with its ceilings. A
// change that takes the kernel past it fails, whatever the per-package
// ceilings.
const kernelTarget = 3195

// substrateBudget is the same ratchet over the simulator substrate the
// kernel runs on and the model checker that explores it. fastmsg rose
// 1,395 → 1,398 for admitBuffered, which a handler completing across a
// crash now calls too: the frames buffered behind its rolled-back floor
// are admitted as it ends, not at the sender's next retransmission.
var substrateBudget = []struct {
	pkg string
	max int
}{
	{"sim", 1168},
	{"fastmsg", 1398},
	{"faultnet", 250},
	{"vm", 618},
	{"core", 613},
	{"mcheck", 804},
}

// TestKernelLineBudget holds the protocol kernel to its line budget, so
// "non-test lines are rising again" is a reviewed edit of the table above
// instead of a finding several PRs later.
func TestKernelLineBudget(t *testing.T) {
	total, ceiling := 0, 0
	for _, b := range kernelBudget {
		lines := withinBudget(t, b.pkg, b.max)
		total, ceiling = total+lines, ceiling+b.max
	}
	if total > kernelTarget {
		t.Errorf("kernel: %d non-test lines, %d over its target of %d", total, total-kernelTarget, kernelTarget)
	}
	t.Logf("kernel: %d non-test lines of %d budgeted, target %d", total, ceiling, kernelTarget)
}

// TestSubstrateLineBudget holds each substrate package to its ceiling.
func TestSubstrateLineBudget(t *testing.T) {
	for _, b := range substrateBudget {
		withinBudget(t, b.pkg, b.max)
	}
}

// withinBudget counts internal/pkg's non-test lines and fails the test
// unless they are exactly max: over it is growth, under it a gain the
// ceiling must keep.
func withinBudget(t *testing.T, pkg string, max int) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/%s: no sources (%v)", pkg, err)
	}
	lines := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		must(t, err)
		lines += bytes.Count(src, []byte("\n"))
	}
	switch {
	case lines > max:
		t.Errorf("internal/%s has %d non-test lines, over its budget of %d: delete the difference, or raise the ceiling in this file and say why", pkg, lines, max)
	case lines < max:
		t.Errorf("internal/%s has %d non-test lines, under its budget of %d: lower the ceiling to %d so the gain is kept", pkg, lines, max, lines)
	}
	return lines
}
