#!/bin/sh
# check.sh — the full local verification gate, in increasing cost order:
# formatting, the commands' dependency fence, go vet, build + unit tests
# (then three uncached passes at each of GOMAXPROCS 1, 2, 4 over the
# packages whose behaviour depends on the schedule), the pasgal-vet
# concurrency checker, a fuzz smoke, then the -race stress tier over the
# concurrency-critical packages. Performance is judged elsewhere, by
# `bash benchmark/run.sh` alone. Run from anywhere inside the repository.
#
#   check.sh -short        formatting, fence, vet, build, and short-mode tests only
#   PASGAL_SKIP_RACE=1     stop before the race tier (it dominates, ~30s)
#   PASGAL_SKIP_VET=1      skip the pasgal-vet concurrency checker
#   PASGAL_SKIP_FUZZ=1     skip the 30s fuzz smoke
set -eu

cd "$(dirname "$0")/.."

# The participant-list frontier tests of internal/core, run uncached by
# -short and under -race at four Ps by the race tier.
frontier_tests='^(TestFrontierSetRing|TestFrontierSetGatherReuses|TestLocalSearchListsExactlyOnce|TestLocalSearchSpillListsKeepCapacity)$'

short=0
for arg in "$@"; do
    case "$arg" in
    -short) short=1 ;;
    *)
        echo "usage: check.sh [-short]" >&2
        exit 2
        ;;
    esac
done

echo '== gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '== one scan body per kernel'
# graph.ScanOut/ScanIn are the only place that switches on the concrete
# representation; a case on one reappearing in a kernel package means a
# round body is being hand-copied per representation again.
if grep -rnE 'case \*graph\.(Compressed|Overlay)' internal/core internal/conn internal/msbfs; then
    echo 'per-representation branch in a kernel package: range over graph.Scanner lists instead' >&2
    exit 1
fi

echo '== one VGC local search'
# core.localSearch (internal/core/vgc.go) owns the worklist, the budget, the
# flush and the scratch of every VGC kernel; a fixed-size worklist or a
# budget countdown anywhere else in internal/core is a hand-copied local
# search loop again.
if grep -nE '\[64\]uint32|budget -=' $(ls internal/core/*.go | grep -v '_test\.go$' | grep -v '^internal/core/vgc\.go$'); then
    echo 'private local-search loop in internal/core: hand the round to localSearch.round' >&2
    exit 1
fi

echo '== no hash bag in the kernels'
# Every frontier insert in internal/core has one owner, the participant
# whose CAS or label write discovered the vertex, and goes to a list of
# its own (core.localSearch); a kernel that links internal/hashbag again
# is paying a shared, hashed insert for duplicates that cannot occur.
if go list -deps ./internal/core | grep -qx 'pasgal/internal/hashbag'; then
    echo 'internal/core links pasgal/internal/hashbag: file inserts in the participant lists instead' >&2
    exit 1
fi

echo '== no weighted, plain or symmetrized copies in the daemon'
# sssp/p2p weigh an unweighted graph at scan time (graph.UniformWeights),
# and kcore peels a directed graph's symmetric closure in place; a
# Materialize, Decompress or Symmetrized in the serving layer means a
# request is building a second graph again.
if grep -nE 'Materialize\(\)|Decompress\(\)|Symmetrized\(\)' $(ls internal/serve/*.go | grep -v '_test\.go$'); then
    echo 'graph copy in internal/serve: scan the served view instead' >&2
    exit 1
fi

echo '== Scanner.Neighbors inlines'
# Every kernel's per-vertex call; its cost sits at the budget's edge
# (see the Scanner comment), so a field or branch added there shows here.
if ! go build -gcflags=-m ./internal/graph 2>&1 | grep -q 'can inline (\*Scanner)\.Neighbors'; then
    echo 'graph.(*Scanner).Neighbors no longer inlines' >&2
    exit 1
fi

echo '== dependency fence'
# pasgal-bench is the one command that reproduces the paper's tables; every
# other command, the daemon among them, links neither the harness nor the
# baselines it times.
for dir in cmd/*/; do
    dir=${dir%/}
    [ "$dir" = cmd/pasgal-bench ] && continue
    if go list -deps "./$dir" | grep -qxE 'pasgal/internal/(bench|baseline)'; then
        echo "$dir links pasgal/internal/bench or pasgal/internal/baseline" >&2
        exit 1
    fi
done

echo '== go vet'
# Its copylocks check also reports sync/atomic values copied by value;
# pasgal-vet has no rule of its own for them.
go vet ./...

echo '== build + tests'
go build ./...
# The benchmark harness is its own module (benchmark/go.mod, reached
# through a replace directive), so the root ./... patterns skip it; build
# and test it here so an internal rename cannot break it unnoticed.
check_benchmark_module() {
    echo '== benchmark module'
    go -C benchmark vet ./...
    go -C benchmark test ./...
}
if [ "$short" = 1 ]; then
    go test -short ./...
    check_benchmark_module
    echo '== scheduler conformance suite'
    go test -run 'Conformance|PanicPropagation|SchedStatsMatchTracer' -count=1 \
        ./internal/parallel
    echo '== MS-BFS rows and the participant frontier lists'
    # Uncached: a round's next frontier is the chunks' lists in chunk
    # order, and which chunk's list holds a pushed vertex is decided by
    # which CAS wins, so the order is the schedule's; the rows must not
    # depend on it. The list tests force steals and count every claimed
    # vertex into exactly one participant's list.
    go test -run '^(TestRunMatchesSequentialOracle|TestRunReachableMatchesOracle|TestRunDirectionOptEquivalence|TestRunSelfLoopsAndMultiEdges)$' \
        -count=1 ./internal/msbfs
    go test -run "$frontier_tests" -count=1 ./internal/core
    echo '== SSSP work bound, thresholds, phase bound and phase boundary'
    # Uncached: the bound is on what a nondeterministic schedule visits,
    # and the boundary's parallel far-set pass is the schedule's to chunk.
    go test -run 'TestSSSPWorkBound|TestRhoSteppingThresholdWidth|TestSSSPMaxWeightBoundedPhases|TestThresholdParity|TestPhaseBoundaryHelpers|TestSSSPSortsOnlyForQuantiles' \
        -count=1 ./internal/core
    echo '== list-ranking work bound'
    # The count is the same on every schedule; uncached so it is the code
    # in the tree that is counted.
    go test -run 'TestRankWorkBound' -count=1 ./internal/euler
    echo '== BCC and sampled connectivity'
    # Uncached: the spanning forest, and so the skeleton's sample, belong
    # to the schedule; the arc partition must not depend on them.
    go test -run '^TestDifferentialBCC$' -count=1 ./internal/bench
    go test -run '^(TestSampledComponents|TestSampledSpanningForest|TestPluralityRoot)$' -count=1 ./internal/conn
    go test -run '^(TestBCCSampledSkeletonManyBlocks|TestBCCSkeletonRemainderOnStarForest)$' -count=1 ./internal/core
    echo '== SCC and BFS on every representation'
    # Uncached for the same reason: which label claims a vertex first and
    # which task installs a BFS distance first (and so which round finds an
    # empty bucket ring) are the schedule's choice; partitions, distances
    # and BFS-tree parents must not be.
    go test -run 'TestRepresentationDifferential/^(scc|bfs)$' -count=1 ./internal/bench
    echo '== SCC pivot choice and label encoding'
    # Uncached: the selection runs parallel reductions and packs, and the
    # label search's write-max race is the schedule's.
    go test -run '^(TestPickPivotsMatchesSort|TestPropagateFilterAndWriteMin)$' -count=1 ./internal/core
    echo '== coalescer batches behind a held gate; one admission slot'
    # Uncached: which submitter starts the flusher, and when each source
    # joins the queue, depend on goroutine interleaving; the batch counts,
    # the rows, and the admission peak must not.
    go test -run '^(TestCoalescerBatchesConcurrentQueries|TestCoalescerLoneSubmit|TestCoalescerSubmitCtxAbandon|TestCoalescerAllAbandoned|TestCoalescerClose)$' \
        -count=1 ./internal/msbfs
    go test -run '^TestAdmissionDefaultsToOneSlot$' -count=1 ./internal/serve
    echo 'short checks passed'
    exit 0
fi
covtmp=$(mktemp /tmp/pasgal-cover.XXXXXX.txt)
trap 'rm -f "$covtmp"' EXIT
go test -cover ./... | tee "$covtmp"
check_benchmark_module

echo '== tier-1 across schedules'
# The worker team follows GOMAXPROCS and -count bypasses the test cache, so
# a test whose outcome depends on the schedule (the since-deleted LDD's
# labels did, at 2 CPUs only) cannot pass here by having passed once. Only the packages that run
# parallel loops of their own are swept; the rest ran once above.
for procs in 1 2 4; do
    GOMAXPROCS=$procs go test -count=3 \
        ./internal/parallel ./internal/hashbag ./internal/conn \
        ./internal/euler ./internal/core ./internal/msbfs ./internal/delta \
        ./internal/serve
done

echo '== coverage ratchet'
# Per-package statement coverage must not drop below the committed
# baseline (scripts/coverage-baseline.txt). Baselines sit a couple of
# points under the measured value so concurrency-dependent paths (steal
# slots, timer flushes) can flap without false alarms; raise them when a
# package's coverage genuinely improves.
awk '
    NR == FNR { base[$1] = $2; next }
    /coverage:/ {
        pct = ""
        for (i = 1; i <= NF; i++)
            if ($i == "coverage:") pct = substr($(i+1), 1, length($(i+1)) - 1)
        if (pct == "") next
        seen[$2] = 1
        if ($2 in base && pct + 0 < base[$2] + 0) {
            printf "coverage regression: %s at %s%% (baseline %s%%)\n", $2, pct, base[$2]
            bad = 1
        }
    }
    END {
        for (p in base)
            if (!(p in seen)) {
                printf "coverage ratchet: baseline package %s reported no coverage\n", p
                bad = 1
            }
        if (!bad) print "coverage ratchet ok"
        exit bad
    }
' scripts/coverage-baseline.txt "$covtmp"

if [ "${PASGAL_SKIP_VET:-0}" = 1 ]; then
    echo '== pasgal-vet skipped (PASGAL_SKIP_VET=1)'
else
    echo '== pasgal-vet'
    # One pass per package, tests included, over the six PASGAL-specific
    # rules; any finding fails the gate. Copies of sync/atomic values are
    # left to the go vet step above (copylocks). The root package,
    # internal/, cmd/, and examples/ are named explicitly so a pattern
    # regression cannot silently drop one.
    go run ./cmd/pasgal-vet -tests . ./internal/... ./cmd/... ./examples/...
fi

if [ "${PASGAL_SKIP_FUZZ:-0}" = 1 ]; then
    echo '== fuzz smoke skipped (PASGAL_SKIP_FUZZ=1)'
else
    echo '== fuzz smoke (30s)'
    # Thirty seconds of FuzzMSBFS against the sequential oracle: enough to
    # churn through tens of thousands of random graph/batch inputs on top
    # of the committed lane-boundary seed corpus.
    go test -run '^$' -fuzz FuzzMSBFS -fuzztime 30s ./internal/msbfs
fi

if [ "${PASGAL_SKIP_RACE:-0}" = 1 ]; then
    echo '== race tier skipped (PASGAL_SKIP_RACE=1)'
    exit 0
fi

echo '== race stress tier'
go test -race -run Stress -count=3 \
    ./internal/hashbag ./internal/parallel ./internal/conn ./internal/euler \
    ./internal/core ./internal/msbfs ./internal/serve ./internal/delta
# The scheduler conformance suite under -race: one pass over every
# primitive x worker-count x grain x size cell catches ordering bugs the
# stress loops' fixed shapes miss.
go test -race -run 'Conformance|PanicPropagation' -count=1 ./internal/parallel
# The coalescer suite under -race: its gate-held tests hand the queue
# between submitters, the flusher and Close, which neither the Stress nor
# the Cancel pattern selects.
go test -race -run '^TestCoalescer' -count=1 ./internal/msbfs
# The derived-graph builders under -race at four Ps: each counting range
# of the transpose owns one cursor row and the Edges slots it fills, each
# symmetrize merge one vertex's upper-bound slots, so a range or merge
# writing past its own shows here.
GOMAXPROCS=4 go test -race -run '^(TestTransposeDifferential|TestSymmetrizedDifferential)$' -count=1 ./internal/graph
GOMAXPROCS=4 go test -race -run '^TestCompactMatchesFromEdges$' -count=1 ./internal/delta
# The participant index under -race at four Ps: nested teams and forced
# steals; a chunk's per-participant scratch is unshared only if no two
# running chunks get one index.
GOMAXPROCS=4 go test -race -run '^TestForRangeTeam' -count=1 ./internal/parallel
# The frontier lists under -race at four Ps: a participant appends to its
# own lists only, and take reads them only after the round's join; the
# kernels that file into them must give the answers of every other
# representation.
GOMAXPROCS=4 go test -race -run "$frontier_tests" -count=1 ./internal/core
GOMAXPROCS=4 go test -race -run 'TestRepresentationDifferential/^(bfs|reachable|scc|sssp|kcore)$' -count=1 ./internal/bench
# Cancellation conformance under -race: pre-canceled contexts, expired
# deadlines, and mid-run cancels across every entry point — the
# fire/drain hand-off is exactly the kind of publication race -race sees
# and plain runs miss.
go test -race -run 'Cancel' -count=1 \
    ./internal/parallel ./internal/core ./internal/baseline ./internal/msbfs \
    ./internal/serve ./internal/delta

echo 'all checks passed'
