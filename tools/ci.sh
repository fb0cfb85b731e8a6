#!/usr/bin/env bash
# CI driver: builds the tree in Release plus both sanitizer flavours and runs
# the test suite under each. The slab event engine and the flow network
# recycle slots and type-erase callbacks — precisely the code ASan/UBSan are
# for — so every change should pass all three before merging.
#
# Usage: tools/ci.sh [jobs]       (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Guard: build trees must never be committed. Anything under a build*/
# prefix showing up in the index means a stray `git add .` picked up
# artifacts (the CI flavours below create three such trees).
if git ls-files | grep -qE '^build[^/]*/'; then
    echo "ERROR: build artifacts are tracked by git:" >&2
    git ls-files | grep -E '^build[^/]*/' | head >&2
    exit 1
fi

run_flavour() {
    local name="$1" build_dir="$2"
    shift 2
    echo "==== [$name] configure ===="
    cmake -B "$build_dir" -S . "$@" >/dev/null
    echo "==== [$name] build ===="
    cmake --build "$build_dir" -j "$JOBS"
    echo "==== [$name] ctest ===="
    (cd "$build_dir" && ctest --output-on-failure)
    # Fault injection exercises slot-recycling under cancellation storms
    # (failed servers cut flows, watchdogs cancel stale events) — exactly
    # what the sanitizers exist to catch. Re-run the robustness/fault suite
    # explicitly so a filter change in the main run can't silently drop it,
    # then smoke the shipped chaos scenario end to end.
    echo "==== [$name] fault/robustness focus ===="
    (cd "$build_dir" && ctest --output-on-failure -R 'Robustness|Fault|Chaos')
    # Observability + statistical fidelity focus: the registry/sampler unit
    # suite and the paper-distribution harness. Run explicitly in every
    # flavour — the sampler's type-erased ticks and the shared client
    # metrics block are exactly the kind of code the sanitizers exist for,
    # and a KS-bound drift must fail CI, not just a local run.
    echo "==== [$name] obs/fidelity focus ===="
    (cd "$build_dir" && ctest --output-on-failure -R 'Histogram|Counter|Registry|Export|Sampler|FidelityRun|GoldenMetrics')
    # Arena/flat-hash focus: the memory layout under the whole event path
    # (docs/SIMULATOR.md "Memory layout"). The ASan flavour configures with
    # -DNS_ARENA_CHECKS=1, so this is also where the dangling-handle
    # generation checks actually execute under the sanitizer.
    echo "==== [$name] arena/flat-hash focus ===="
    (cd "$build_dir" && ctest --output-on-failure -R 'Arena|FlatHash|Directory')
    # Full-scale chaos scenario smoke: release flavour only (the sanitizer
    # flavours cover the same path via the reduced-scale Chaos ctest suite).
    if [ "$name" = release ]; then
        echo "==== [$name] chaos scenario smoke ===="
        local smoke_out="$build_dir/chaos_smoke.nstrace"
        "$build_dir/tools/netsession_sim" run scenarios/chaos_regional_outage.ini "$smoke_out"
        # Load the full-size trace back through the reader, fault timeline
        # included: a load failure exits non-zero and fails the leg.
        "$build_dir/tools/nstrace" summary "$smoke_out"
        "$build_dir/tools/nstrace" recovery "$smoke_out"
        rm -f "$smoke_out"
        # 200k-peer scale smoke: the arena + flat-hash overhaul must keep a
        # 5x population inside a bounded footprint and a hard wall-clock
        # budget (`timeout` fails the leg if the run wedges or regresses).
        echo "==== [$name] 200k scale smoke ===="
        local scale_out="$build_dir/scale_smoke.nstrace"
        timeout "${NS_SCALE_BUDGET_SECONDS:-1800}" \
            "$build_dir/tools/netsession_sim" run scenarios/standard_200k.ini "$scale_out"
        rm -f "$scale_out"
        # Thread-count invariance smoke: the analysis pipeline must produce
        # byte-identical results whatever NS_THREADS says (docs/PARALLELISM.md).
        echo "==== [$name] thread-invariance focus ===="
        (cd "$build_dir" && ctest --output-on-failure -R 'ThreadInvariance|Parallel|GuidGraph')
        # Benchmark smoke: perfbench/ compiles ../src into its own build, so
        # an API change in src/ can break the benchmark while every ctest
        # above still passes. Runs each workload tiny and checks its output.
        echo "==== [$name] perfbench smoke ===="
        python3 perfbench/smoke_test.py
    fi
}

# The audit flavour turns the runtime invariant auditor on by default (NS_AUDIT=ON)
# with violations fatal (NS_AUDIT_FATAL=ON) and runs the fault/integration
# surface under ASan: cross-layer contracts (byte conservation, directory
# consistency, flow capacity, stall bounds, arena accounting) are checked
# *while faults are live*, and any violation aborts the test. It finishes
# with a chaos-fuzz smoke: five campaign seeds, each run twice and the two
# traces compared byte-for-byte — the campaign determinism contract.
run_audit_flavour() {
    local build_dir=build-ci-audit
    echo "==== [audit] configure ===="
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNS_SANITIZE=address \
        -DNS_AUDIT=ON -DNS_AUDIT_FATAL=ON \
        "-DCMAKE_CXX_FLAGS=-DNS_ARENA_CHECKS=1 -D_GLIBCXX_ASSERTIONS" >/dev/null
    echo "==== [audit] build ===="
    cmake --build "$build_dir" -j "$JOBS"
    echo "==== [audit] fault/integration focus (auditor fatal) ===="
    (cd "$build_dir" && ctest --output-on-failure \
        -R 'Audit|Fault|Chaos|Robustness|Simulation|Integration|Campaign|Recovery')
    # Audit builds sample the same registry as default builds, so the golden
    # snapshot and the whole-trace hibernation differential must hold here.
    echo "==== [audit] golden metrics + hibernation differential ===="
    (cd "$build_dir" && ctest --output-on-failure -R 'GoldenMetrics|HibernationDifferential')
    echo "==== [audit] chaos-fuzz smoke (5 seeds, byte-identity) ===="
    local fuzz_dir="$build_dir/chaos_fuzz"
    mkdir -p "$fuzz_dir"
    for seed in 3 7 11 13 17; do
        local ini="$fuzz_dir/campaign_$seed.ini"
        {
            echo "seed = 42"
            echo "peers = 1500"
            echo "warmup_days = 1"
            echo "window_days = 4"
            echo "downloads_per_peer_per_month = 10"
            echo "campaign = seed=$seed waves=3 mean_concurrent=2 start=2 spacing=1 duration=0.15 fraction=0.15"
        } > "$ini"
        "$build_dir/tools/netsession_sim" run "$ini" "$fuzz_dir/a_$seed.nstrace" >/dev/null
        "$build_dir/tools/netsession_sim" run "$ini" "$fuzz_dir/b_$seed.nstrace" >/dev/null
        cmp "$fuzz_dir/a_$seed.nstrace" "$fuzz_dir/b_$seed.nstrace" \
            || { echo "ERROR: campaign seed=$seed is not deterministic" >&2; exit 1; }
        echo "  seed=$seed: traces byte-identical"
    done
    rm -rf "$fuzz_dir"
}

# The scale flavour proves the hibernation memory diet (docs/SIMULATOR.md
# "Memory layout") end to end:
#   1. in Release, a 1M-peer smoke of scenarios/standard_1m.ini under a hard
#      wall-clock budget AND a peak-RSS ceiling — the whole point of demoting
#      offline peers to the cold store is that a million installations fit on
#      one box. The ceiling is read back from the kernel's VmHWM high-water
#      mark via /usr/bin/time -v (skipped with a warning if GNU time is not
#      installed);
#   2. under ASan with NS_ARENA_CHECKS=1 (the asan tree), the labelled
#      memdiet suites (`ctest -L memdiet`) — hibernate/rehydrate round-trips,
#      the hibernation-on/off trace differential, and the pool-handle
#      generation-wrap regressions, with every cold-blob read/write and pool
#      dereference instrumented.
run_scale_flavour() {
    local release_dir=build-ci-release asan_dir=build-ci-asan
    local ceiling_kib=$(( ${NS_SCALE_RSS_CEILING_MIB:-6144} * 1024 ))
    echo "==== [scale] release 1M-peer smoke (RSS ceiling ${NS_SCALE_RSS_CEILING_MIB:-6144} MiB) ===="
    local scale_out="$release_dir/scale_1m.nstrace"
    local time_log="$release_dir/scale_1m.time"
    if [ -x /usr/bin/time ] && /usr/bin/time -v true >/dev/null 2>&1; then
        timeout "${NS_SCALE_1M_BUDGET_SECONDS:-5400}" \
            /usr/bin/time -v -o "$time_log" \
            "$release_dir/tools/netsession_sim" run scenarios/standard_1m.ini "$scale_out"
        local peak_kib
        peak_kib=$(awk '/Maximum resident set size/ {print $NF}' "$time_log")
        echo "  1M smoke peak RSS: $(( peak_kib / 1024 )) MiB (ceiling $(( ceiling_kib / 1024 )) MiB)"
        if [ "$peak_kib" -gt "$ceiling_kib" ]; then
            echo "ERROR: 1M-peer run peak RSS ${peak_kib} KiB exceeds ceiling ${ceiling_kib} KiB" >&2
            exit 1
        fi
        rm -f "$time_log"
    else
        echo "  WARNING: GNU time not available; running 1M smoke without the RSS ceiling check"
        timeout "${NS_SCALE_1M_BUDGET_SECONDS:-5400}" \
            "$release_dir/tools/netsession_sim" run scenarios/standard_1m.ini "$scale_out"
    fi
    rm -f "$scale_out"
    echo "==== [scale] release labelled memdiet suites ===="
    (cd "$release_dir" && ctest --output-on-failure -L memdiet)
    echo "==== [scale] asan (NS_ARENA_CHECKS=1) labelled memdiet suites ===="
    (cd "$asan_dir" && ctest --output-on-failure -L memdiet)
}

# The TSan flavour builds the whole tree but focuses ctest on the suites that
# actually go multi-threaded: the parallel runtime, the analysis pipeline it
# drives, and the obs/fidelity harnesses that consume pipeline output. TSan's
# ~10x slowdown makes the full 500-test suite wasteful when everything
# outside analysis/ is single-threaded by design.
run_tsan_flavour() {
    local build_dir=build-ci-tsan
    echo "==== [tsan] configure ===="
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNS_SANITIZE=thread >/dev/null
    echo "==== [tsan] build ===="
    cmake --build "$build_dir" -j "$JOBS"
    echo "==== [tsan] parallel/analysis/obs/fidelity focus ===="
    (cd "$build_dir" && NS_THREADS=4 ctest --output-on-failure \
        -R 'Parallel|ThreadInvariance|Stats|GuidGraph|Measurement|Serialize|Histogram|Counter|Registry|Export|Sampler|FidelityRun|GoldenMetrics')
}

run_flavour release build-ci-release -DCMAKE_BUILD_TYPE=Release
# NS_ARENA_CHECKS=1: RelWithDebInfo defines NDEBUG, which would compile the
# arena's dangling-handle generation checks out — force them on so ASan runs
# with every pool dereference verified. _GLIBCXX_ASSERTIONS bounds-checks
# every standard container index, which ASan misses while the read stays
# inside the vector's capacity.
run_flavour asan build-ci-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNS_SANITIZE=address \
    "-DCMAKE_CXX_FLAGS=-DNS_ARENA_CHECKS=1 -D_GLIBCXX_ASSERTIONS"
run_flavour ubsan build-ci-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNS_SANITIZE=undefined
run_audit_flavour
run_tsan_flavour
run_scale_flavour  # reuses the release + asan trees built above

echo "==== CI: all flavours passed ===="
