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
// files left out, the count ROADMAP's "Lines" bullet tracks. It only ratchets down:
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
//
// lrc-mw became home-based (lrc 1,018 -> 801): every fault on a missing
// or invalidated copy is one fetch from the home, so the lazy per-writer
// diff path went — the diff request and reply rows, the merge, the
// three-generation diff store with its interval GC, the per-minipage
// pending-notice and seen rows with their slabs, the coordinator's
// notice stamp (nothing ordered merges by it any more), the lazy path's
// four counters and ReadFault, which nothing read.
//
// Raised, cluster 1,846 -> 1,854, when every directory request began to
// leave its requester translated: Blocking.Lead and the opLead stage
// charge a fault's MPT lookup inside Block's one wait sequence, so moving
// the lookup off host 0 costs the faulting thread no extra process
// switch. Paid for in dsm, 2,239 -> 2,215: route's single-home branch,
// the request rows' lookup front, resolve's lookup and requeue lookup,
// the ack's decline, and newManager with its three eager maps went.
//
// Replicated directory management went (cluster 1,854 -> 1,832, dsm
// 2,215 -> 1,260): repl.go with its view-service daemons, mirrors, state
// transfers and promotions; the seven control rows; the replication
// fields of the protocol header and the directory entry; the
// mirror-before-effect commit points (effect, release, commitIntent,
// commitClose), so admit calls its effect and the acks close the
// transaction directly; the re-ack of re-driven twins; the prefetch's
// private transaction identity and pooled retry record, with Release on
// cluster's Resender; the kernel option and its two validate cases;
// and the mirror and promotion counters of Totals. It lost to the
// unreplicated directory at every outage the fault presets use.
//
// Raised, cluster 1,832 -> 1,866, when the home-based directory became
// the default: Blocking.Close with its Closer interface and the opClose
// and opClosed stages post a fault's ack and charge its send as the last
// stage of the fault's one wait sequence, instead of a Flush on the woken
// thread (+27), and Options.HomeOf's default and HomeCentral, the paper's
// one manager as a placement function (+7). Paid for in dsm, 1,260 ->
// 1,205: DIR_INIT went — the row, allocLocal's sends, seed with its replay
// of the requests that outran it, the shard's waitInit parking and
// dirInited count — for a directory entry allocLocal writes in place, as
// it grows the MPT every host reads; homeOf's nil branch, the shards'
// sparse slices with their slab arenas, setEntry and newEntry went for one
// dense directory in slabs; and the ack's unused Write field.
//
// Raised, cluster 1,866 -> 1,874, when lrc-mw began to home by HomeOf:
// the placement function both implementations call (Lifecycle.HomeOf) and
// the range check both allocators call once per new id
// (Lifecycle.CheckHomes) moved into the kernel, while the Directory trait,
// its two validate cases and Allocation.Home went. Paid for in dsm, 1,205
// -> 1,198 (its own homeOf and allocLocal's check), and lrc, 801 -> 795
// (MWSystem.homes, Alloc's append loop, describe's bounds check and
// HandleFault's unmapped-home error went, and its thirteen error panics
// became one must, while growTwin came: a copy away from the home now
// grows its twin over the bytes a chunk's later allocations add).
//
// Raised, cluster 1,874 -> 1,882 and dsm 1,198 -> 1,218, when a
// minipage's readers began to share one read transaction at the home: the
// directory entry counts its reads in flight in the invalidation count's
// storage, joins a read to the open ones, closes on the last read's ack
// and dispatches the reads queued behind a write together, and checks
// under -tags invariants that no read is in flight as the entry goes idle
// or opens a write or push (dsm +20); the kernel gained FIFO.Peek, which
// Pop now calls, and the Invariants constant that check reads (+8).
//
// The transport became the only recovery layer (cluster 1,882 -> 1,717,
// dsm 1,218 -> 1,080): Blocking's retry fields, the re-send timers with
// their entries, pool and backoff, the host's in-flight registry and its
// crash-time re-send, Wait's transaction id and generation, the thread's
// transaction counter, the restart hook's recovery process with
// CrashRecoverer and Runtime.Faulty went from cluster; the header's
// TID/Txn and their echoes, the fault request's Resend, the home's
// duplicate tables and counter, the late-reply guards and the stamped
// branches of the fronts, the directory row, DATA and UPGRADE_GRANT, and
// RecoverCrash went from dsm.
//
// Invalidation replies began to go to the writer (dsm 1,080 -> 1,065): the
// home sends a write's invalidations and its forward or grant together and
// commits the copyset at once, so the pending write and upgrade fields,
// the home's invalidation-reply handler, forwardWrite and sendInvalidates
// went; the writer
// counts the replies on its request (settle, settleFront) and raises its
// copy with the last, and closeTxn checks under -tags invariants that no
// host outside the copyset maps the minipage. Its seven Protect-or-panic
// blocks became one protect helper, a denser expression rather than a
// reduction: without it dsm would read 1,074.
//
// lrc-mw became dsm's second consistency class (dsm and lrc 1,065 + 795
// -> 1,716, cluster 1,717 -> 1,716): lrc's System, Host and Thread
// types, its constructor with its copy of the layout, region and MPT
// construction, its header type, header pool, message table, trace
// description, Totals and MWThread.call went, the multi-writer code moving
// over as it was, its five rows appended to dsm's table; dsm's manager
// type, the System's per-host slice of them and their accessors went, its
// methods and counters now the Host's. The kernel hands a host's
// Consistency hooks to AddHost instead of finding them by type assertion,
// so one Host type serves both classes.
//
// A home began to source reads from its own copy (dsm +3, closeTxn's pop
// folded into its dispatch), SC minipages began to check SW/MR at every
// protection change under -tags invariants (dsm +14), and the directory
// and lock queues became intrusive lists through a link in each header,
// so parking one allocates nothing (cluster 1,716 -> 1,715, dsm +1).
// Paid for in dsm, 1,716 -> 1,713: the Costs alias and DefaultCosts,
// which the rest of the repo reaches in cluster, went with costs.go's
// import, and its package comment, which still placed every directory
// entry on host 0, was rewritten shorter as doc.go (-12); the
// coordinator's notice chains count from 1, so a cleared table needs no
// -1 fill (logNotice, Converged; -5, of which newerThan's one-growth Grow
// took 1 back); and ManagerStatsTotal became one struct expression (-5),
// a denser expression rather than a reduction.
//
// Raised, dsm 1,713 -> 1,759, when lrc-mw's releases stopped waiting for
// their diffs: the version gate. A home's own writes stopped taking twins
// and diffs first, on its own line-negative (1,713 -> 1,711: diff's
// growTwin guard and diffFlush's twin patch went for a per-minipage
// mark). Then MW_DIFF_ACK, its handler, the release's wait and its flush
// staging went, and in their place each home keeps the version of the
// last diff it applied per creator, a flush carries its interval, an
// acquire records what it must see per minipage in a slab (the needs and
// their free list), a fetch carries them, and the home parks a fetch, or
// blocks its own acquire, until the versions cover them (+48).
//
// Raised, dsm 1,759 -> 1,848, when lrc-mw's homes began to follow a
// stable sole writer: the migration code. The coordinator keeps each
// minipage's home and its sole writer of this and of its last written
// epoch (mwPlace, System.places and its epoch count), and finds a
// barrier's moves in the epoch's notices (System.moves) for the
// BARRIER_RELEASE to carry (mwSync.Moves, mwMove); each host keeps its
// own table in its per-minipage record (mwMP.home, homeOf), applies the
// moves after the release's notices (Host.move: the old home's cached
// copy, the dropped needs, and under -tags invariants the mover's copy
// and the table checked against the coordinator's), and the fault,
// release, acquire, allocation map and trace read it; the fetch's need
// walk became takeNeeds, which a move also calls; and Migrations counts
// the moves (+89).
//
// Raised, dsm 1,848 -> 1,937, when SC homes began to follow their writer
// through the same code (home.go): the move rule left mw.go for both
// classes (System.moves, a scan of one write-record table by minipage id,
// System.places, which lrc-mw's notices and SC's writeEffect fill, with
// record growing it), and the home table became one for both (a dense
// list by id, double buffered on the coordinator, replacing mwPlace's
// home and mwMP.home; homeOf, and adopt, each host taking the table a
// BARRIER_RELEASE carries, checked against the coordinator's under -tags
// invariants). SC hosts got the Consistency seam for its barrier half
// only (scSync, whose lock hooks are empty), every home-bound SC message
// carries the barrier epoch it was routed in (pmsg.Epoch, stamped at six
// sends), and dir parks one from a later epoch in the host's early queue
// until its release, forwards one from an earlier epoch to the host's
// current home, and leaves a same-epoch misroute to resolve's panic; the
// release's record gained the table and the epoch (mwSync.Homes, Epoch),
// and its releaser field was renamed (+89).
//
// Raised, cluster 1,715 -> 1,722 and dsm 1,937 -> 2,000, when a read under
// a lock began to be served exclusive: the kernel's thread counts the locks
// it holds (Thread.locks, HoldsLock, Lock and Unlock) and Totals carries
// ExclusiveReads (+7); in dsm, each host's rmw and excl marks per minipage
// in bit slabs that allocLocal grows beside the directory (System.marks,
// markSlab, bit, marked, mark, unmark, lose), the fault's exclusive read
// and local upgrade (HandleFault; pmsg.Excl, request.excl), the home
// serving an exclusive read through writeEffect (admit) and counting it
// (ManagerStats.ExclusiveReads), the reply's install marking the copy
// (raise, which installMinipage's and settleWrite's protection changes
// became), the loss in READ_FWD, WRITE_FWD and a push order, and doc.go's
// paragraph (+63).
//
// Lowered, dsm 2,000 -> 1,983, when lrc-mw's fetch became a read served
// on SC's rows: its request, reply header and data rows, its data marker
// and its install handler went; dir hands the read to fetch.
//
// Lowered, dsm 1,983 -> 1,982, when the copyset left the directory entry
// for a row of host bits beside the rmw and excl marks, and those marks'
// slab and bit arithmetic moved into hostset's one host-bit table.
//
// Moved, not raised, dsm 1,982 -> 2,049, and lowered, cluster 1,722 ->
// 1,603, when the protocol plug-in layer went: the System interface, the
// generic Lifecycle base and the protocol traits, built for four
// protocols with one left.
// dsm's System now holds the runtime and its own typed hosts and threads
// and does what Lifecycle did (the build, Run, the accessors, HomeOf and
// the home range check) as concrete code, NewMW refuses more than one
// thread a host itself, and Prefetch, Push and GangFetch became no-ops
// under lrc-mw in dsm, where the root Worker used to skip them.
var kernelBudget = []struct {
	pkg string
	max int
}{
	{"cluster", 1603},
	{"dsm", 2049},
}

// kernelTarget is the kernel's line total (cluster and dsm), lowered to
// what it stood at once the protocol plug-in layer went (3,704 once the
// copyset became host bits sized by the cluster; 3,705 once lrc-mw's fetch became a read on SC's rows; 3,722
// once a read under a lock began to be served exclusive; 3,652 once SC homes began to follow their writer too; 3,563
// once lrc-mw's homes began to follow their writer; 3,474 once lrc-mw's releases stopped waiting for their diffs; 3,428 once a home began to source reads from its own copy; 3,432 once lrc-mw became dsm's second consistency class; 3,577 once invalidation replies went to the writer; 3,592
// once the transport became the only recovery layer; 3,895 once a minipage's readers shared one read transaction; 3,867
// once lrc-mw homed by HomeOf; 3,872 once the
// home-based directory became the default; 3,893 once replicated
// management went; 4,870 once every
// directory request left its requester translated; 4,886 once lrc-mw
// became home-based; 5,103 when one SC and
// one DRF-SC implementation first remained; the kernel refactor's goal was
// 5,523, 10 % under the 6,137 the packages, ivy's 398 included, had before
// it began). A change that takes the kernel past it fails, whatever the
// per-package ceilings.
const kernelTarget = 3652

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
