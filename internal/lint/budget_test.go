package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// kernelBudget is the ceiling on each kernel package's non-test .go
// lines — what `cat internal/<pkg>/*.go | wc -l` prints with the _test.go
// files left out, the count ROADMAP item 4 tracks. It only ratchets down:
// a change that deletes lines lowers its package's ceiling to the new
// count in the same commit, and one that needs a ceiling raised says so
// in review.
//
// Raised once, cluster 1,654 -> 1,665 (PR 24): the lock table carves its
// lockState records from a slab (+4: a third of water8's allocations were
// one record a lock id), and Poison/CheckPoison are exported so lrc-mw's
// interval arenas get the freelists' use-after-recycle check under -tags
// invariants (+7, net of the slice-pool hooks now built on them).
//
// Moved, not raised, cluster 1,665 -> 1,790 (PR 25): the message table
// the kernel dispatches (MsgTable, Register, the receive sequence's
// Server, Post/Flush, the parked reply headers, the engine-row check)
// replaced four HandleMessage switches, four DescribeMsg methods, four
// name tables and four pending-header maps; with that, and the per-host
// counters of the other protocols summed into one set the kernel fell by
// 8 + 37 + 82 and stood 2 under its old sum.
//
// Raised, cluster 1,790 -> 1,825 and dsm 2,252 -> 2,287, when dsm's rows
// began to run in engine context first: one handler whose process may be
// nil, the decline sentinel and its invariants check, sends queued for the
// receive sequence with their trace records stamped at their turn, and
// DATA's install charge as its front (with fastmsg's +29, 97 lines for
// 0.38x the switches of E2EServe8); 2 of dsm's are the chunk-extension
// fix, which stopped handing an allocator a writable copy over readers.
//
// ivy's 398 lines went when it became millipage's page-grain, HomeMod
// preset (a registry row); dsm took +10 so a page-grain allocation that
// spans pages maps every fresh page at its allocator, and cluster -1 of
// comment.
//
// Raised, cluster 1,824 -> 1,852 and lrc 1,402 -> 1,422, when barriers
// began to combine up a fan-in-8 tree: every host a node that collects into
// its Host and sends one group up, releases down the same two rows
// (BarrierService and the coordinator-only guard went), and lrc-mw's
// barrier arrival carrying its epoch's notices, as it can now overtake the
// host's unlocks. Paid for in dsm, 2,297 -> 2,239: three test-only
// replication accessors moved to the test that reads them, write-only
// counters (HostStats, five ReplStats fields) and a one-use alias went.
//
// Single-writer lrc's 361 lines went, and the generic base its two
// realizations shared folded into lrc-mw, with its test-only MPT accessor
// and Options alias gone (lrc 1,422 -> 1,018); the kernel's
// Consistency and NoticeLog hooks, with lrc-mw their one implementer,
// became one interface (cluster 1,852 -> 1,846).
var kernelBudget = []struct {
	pkg string
	max int
}{
	{"cluster", 1846},
	{"dsm", 2239},
	{"lrc", 1018},
}

// kernelTarget is the kernel's line total (cluster, dsm and lrc), lowered
// to what it stood at once single-writer lrc was deleted and one SC and
// one DRF-SC implementation remained: ROADMAP item 4's goal was 5,523,
// 10 % under the 6,137 the packages (ivy's 398 included) had before the
// kernel refactor began. A change that takes the kernel past it fails,
// whatever the per-package ceilings.
const kernelTarget = 5103

// TestKernelLineBudget holds the protocol kernel to its line budget, so
// "non-test lines are rising again" is a reviewed edit of the table above
// instead of a finding several PRs later.
func TestKernelLineBudget(t *testing.T) {
	total, ceiling := 0, 0
	for _, b := range kernelBudget {
		pkg, max := b.pkg, b.max
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
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
		switch {
		case lines > max:
			t.Errorf("internal/%s has %d non-test lines, over its budget of %d: delete the difference, or raise the ceiling in this file and say why", pkg, lines, max)
		case lines < max:
			t.Errorf("internal/%s has %d non-test lines, under its budget of %d: lower the ceiling to %d so the gain is kept", pkg, lines, max, lines)
		}
		total, ceiling = total+lines, ceiling+max
	}
	if total > kernelTarget {
		t.Errorf("kernel: %d non-test lines, %d over its target of %d", total, total-kernelTarget, kernelTarget)
	}
	t.Logf("kernel: %d non-test lines of %d budgeted, target %d", total, ceiling, kernelTarget)
}
