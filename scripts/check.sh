#!/usr/bin/env bash
# check.sh runs the repository's checks in four tiers; CI runs all four.
#
#   scripts/check.sh fast    build, vet, gofmt and every test once
#   scripts/check.sh full    every test under -race, then again under
#                            -race -tags invariants; pins re-recorded and
#                            diffed; stress reruns, coverage floors, fuzz,
#                            the benchmark module and each Go benchmark once
#   scripts/check.sh smoke   the cmd/millipage cells listed at the bottom
#   scripts/check.sh mutants every mutant of testdata/mutants killed by its
#                            killers, known survivors surviving, and each
#                            kernel and substrate statement the change
#                            touches settled
#
# Tiers run in the order given (`scripts/check.sh fast full smoke mutants`). Tests
# are selected by running all of them, so a new Test anywhere in the module
# runs under every build with no edit here. The only -run patterns are the
# stress reruns'; internal/lint's TestCheckScriptNamesRealTests fails if an
# alternative of one, or of a -bench or -fuzz pattern, names no function.
# A test's reason for being is its doc comment; the comments here say why
# a step runs the way it does.
set -euo pipefail
cd "$(dirname "$0")/.."

fast() {
	go build ./...
	go vet ./...
	# Any file gofmt would change fails, benchmark/ included.
	local unformatted
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt -l:"$'\n'"$unformatted"
		return 1
	fi
	go test ./...
}

full() {
	# Every test under the race detector, in shuffled order so that state
	# one test leaves behind for another fails, re-recording every
	# schedule pin as it passes: each package's testdata/pins.txt,
	# BENCH_sim.json's counter columns and serving rows, and the CLI's usage
	# golden. The files must come out byte for byte as checked in, so a
	# moved schedule, a writer that reorders or reformats, or a hand edit
	# out of canonical form fails the diff. Run it on a tree whose pin
	# files are committed or staged.
	UPDATE_PINS=1 go test -count=1 -race -shuffle=on ./...
	git diff --exit-code -- '*testdata/pins.txt' BENCH_sim.json cmd/millipage/testdata/usage.golden
	# Every test again with the freelists' lifecycle checks and the
	# protocols' invariant panics built in. The pools count what they make
	# only under the tag, so the header-balance tests exist only here.
	go test -count=1 -race -tags invariants ./...

	# Stress reruns where real Go concurrency lives: the kernel's runtime
	# (the cluster suites over every protocol, and dsm's barrier tree,
	# receive sequence and deadlock report),
	# bench's parallel replica sweeps, and sim's idle-carrier list (the one
	# package-level state engines share), its resume chains and steppers.
	# Repetition gives a scheduling-order bug more chances to surface.
	go test -race -count=3 ./internal/cluster/
	go test -race -count=3 -run '^(TestBarrierTreeShape|TestBarrierTreeEpisodes|TestReceiveSequenceIsTheServer|TestDeadlockNamesWhatThreadsWaitFor)$' ./internal/dsm/
	go test -race -count=3 -run 'TestSweep' ./internal/bench/
	go test -race -count=10 -run 'TestConcurrentEnginesShareCarriers|TestCarriersDoNotGrowPerRun|TestChain|TestChildCarrierReleasedByResumer|TestHandoverPrice|TestStepper|TestDrive' ./internal/sim/

	# The checker and model checker are this repository's proof
	# obligations: their statement coverage stays above a floor so oracle
	# code cannot rot untested.
	local pkg want pct
	for pkg in internal/check:90 internal/mcheck:65; do
		want=${pkg#*:} pkg=${pkg%:*}
		pct=$(go test -cover "./$pkg/" | grep -o 'coverage: [0-9.]*' | cut -d' ' -f2)
		echo "$pkg coverage: $pct% (floor $want%)"
		awk -v p="$pct" -v f="$want" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }'
	done

	# Bounded mutation of the two adversarial-input surfaces: the twin/diff
	# codec and minipage address traversal. Their checked-in corpora replay
	# in every go test run.
	go test -run '^$' -fuzztime=15s -fuzz=FuzzEncodeDecode ./internal/twindiff/
	go test -run '^$' -fuzztime=15s -fuzz=FuzzTraverse ./internal/mmu/

	# benchmark/ is a module of its own (replace millipage => ../), so ./...
	# never compiles it: a change to the root API, internal/apps or
	# internal/serve could break the gated benchmark unnoticed.
	go vet -C benchmark ./...
	go test -C benchmark -short ./...

	# One iteration of every Go benchmark, so none stops compiling or
	# crashes unseen; the access path's at a fixed count; and `millipage
	# bench`, the only writer of the ledger's alloc pins, as a table only.
	go test -run '^$' -bench . -benchtime=1x ./...
	go test -run '^$' -bench 'AccessSamePage|TypedReadU64|TypedWriteU64|FaultUpcall|SORUpdateRow' -benchtime 1000x ./internal/vm/ ./internal/apps/
	go run ./cmd/millipage bench -out ""
}

# smoke runs each cell below against cmd/millipage built plain or with
# -tags invariants (the first word). Every cell fails the tier on its own:
# explore asserts its oracles after each schedule, chaos its workload's
# convergence, serve -check runs its scenario twice and diffs the
# fingerprints, and apps checks each answer.
smoke() {
	local bin build args
	bin=$(mktemp -d)
	trap "rm -rf '$bin'" EXIT
	go build -o "$bin/plain" ./cmd/millipage
	go build -tags invariants -o "$bin/invariants" ./cmd/millipage
	while read -r build args; do
		case $build in '' | '#'*) continue ;; esac
		echo "== millipage ($build) $args"
		# shellcheck disable=SC2086 # args split into the cell's words
		"$bin/$build" $args </dev/null
	done <<'CELLS'
# Schedule exploration under every protocol name: same-timestamp event
# order shuffled over >= 100 distinct schedules. ivy is
# millipage's page-grain preset.
plain explore -schedules 120 -seed 7 -workload drf
plain explore -schedules 120 -seed 7 -protocol ivy -workload swmr
plain explore -schedules 60 -seed 7 -protocol lrc-mw -workload drf -faults reorder-heavy
plain explore -schedules 120 -seed 7 -protocol lrc-mw -workload drf
plain explore -schedules 120 -seed 7 -protocol lrc-mw -workload merge -faults drop-heavy
invariants explore -schedules 60 -seed 7 -workload drf -faults drop-heavy
invariants explore -schedules 60 -seed 7 -protocol lrc-mw -workload merge -faults drop-heavy
# A release's diff trails its notice: a fetch parks at the home, or the
# home's acquire waits, until the diff is applied.
invariants explore -schedules 60 -seed 7 -protocol lrc-mw -workload drf -faults partition-heal
# A home moves to its sole writer at a barrier (a run that moves none
# fails), each host's home table checked against the coordinator's; under
# millipage a directory message routed before the move is forwarded, one
# routed after it waits at a home not yet released.
invariants explore -schedules 60 -seed 7 -protocol lrc-mw -workload home-move -faults partition-heal
invariants explore -schedules 60 -seed 7 -protocol lrc-mw -workload home-move -faults crash-restart
invariants explore -schedules 60 -seed 7 -protocol millipage -workload home-move -faults partition-heal
invariants explore -schedules 60 -seed 7 -protocol millipage -workload home-move -faults crash-restart
# Shared read transactions across a crash with the read-count check armed:
# page-grain ivy, where a page's readers share most densely, and the
# message-passing litmus.
invariants explore -schedules 60 -seed 7 -protocol ivy -workload swmr -faults crash-restart
invariants explore -schedules 60 -seed 7 -workload mp -faults crash-restart
# An invalidation reply overtakes the data it must not be counted after,
# with the copyset and reply-count checks armed.
invariants explore -schedules 60 -seed 7 -workload swmr -faults reorder-heavy
# Turns at a lock after contended updates; a run that serves no read under
# a lock exclusive fails, SW/MR checked at every protection change.
invariants explore -schedules 60 -seed 7 -protocol ivy -workload drf -faults crash-restart
invariants explore -schedules 60 -seed 7 -protocol millipage -workload drf -faults partition-heal
# The directory home's crash, ridden out by the transport alone.
invariants explore -schedules 60 -seed 7 -workload drf -faults crash-restart
# Drops, duplicates, reordering, a partition that heals and a crash and
# restart: the transport's reliability layer, the one recovery layer, must
# restore exactly-once. -crash 1,2ms,30ms crashes host 1, a directory home.
plain chaos -seed 7
plain chaos -seed 7 -protocol ivy -crash 1,3ms,9ms
plain chaos -seed 7 -protocol lrc-mw -partition 2ms,10ms
plain chaos -seed 7 -protocol lrc-mw -crash 1,3ms,9ms -partition 2ms,10ms
plain chaos -seed 7 -crash 1,2ms,30ms
# Serving, twice each: an SC protocol's lock-free reads and lrc-mw, on a
# clean wire and under drop-heavy (whose latency the transport's timer
# sets); crash-restart crashes host 0, a home and the lock and allocation
# authority, mid-serve; nt-timers, under the paper's bimodal sweeper gaps,
# hands each request reaching a thread that waits for its next arrival
# (Idle) to the poller through the busy-to-idle flush.
plain serve -scenario smoke -check
plain serve -scenario smoke-lrc-mw -check
plain serve -scenario drop-heavy -check
plain serve -scenario drop-heavy -protocol lrc-mw -check
plain serve -scenario crash-restart -check
plain serve -scenario nt-timers -check
# Past the paper's 8 hosts. LU is 99 % barrier time at 256 hosts, so a
# tree that stalls or serialises shows as a hang or as the star's 41 ms.
# SOR at 64 hosts is the footprint shape: every host maps the whole image
# n+1 times. SOR at 256 under invariants checks every idle directory
# entry's copyset against the hosts mapping it, past the first 64 bits.
plain apps -only LU -hosts 64,256 -scale 0.05
plain apps -only SOR -hosts 64 -scale 0.25
invariants apps -only SOR -hosts 256 -scale 0.05
CELLS
}

# mutants runs the mutant catalogue (cmd/mutate): each mutant undoes one
# optimization or guard, and the tests or commands it names must fail with
# it in place, so an oracle that stops catching its bug fails here. A
# known survivor is marked with the ROADMAP item that will kill it, and
# fails the tier once something does. A change that adds an optimization
# adds the mutant that undoes it. The catalogue's statement-deletion
# families delete each statement the change touches in the kernel
# (internal/dsm) and the substrate under it (sim, fastmsg, faultnet, vm,
# core), one at a time: each must be killed, fail to build, or be listed
# equivalent.
mutants() {
	go run ./cmd/mutate
}

[ $# -gt 0 ] || set -- usage
for tier in "$@"; do
	case $tier in
	fast | full | smoke | mutants) ;;
	*)
		echo "usage: scripts/check.sh fast|full|smoke|mutants ..." >&2
		exit 2
		;;
	esac
done
for tier in "$@"; do
	start=$SECONDS
	"$tier"
	echo "check.sh: $tier passed in $((SECONDS - start)) s"
done
