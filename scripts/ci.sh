#!/usr/bin/env sh
# Tier-1 gate, runnable locally or in CI. Mirrors what the test suite
# enforces, plus formatting when the toolchain component is installed.
#
# Every step runs, even after an earlier one fails, so one red gate
# cannot hide the others. Exit: non-zero if any step failed, after
# listing the failed steps by name.
set -u

cd "$(dirname "$0")/.."

say() { printf '\n== %s\n' "$*"; }

failed=""

# step NAME COMMAND [ARGS...]: run one step and record its failure.
# Multi-command steps are the shell functions below; each chains its
# commands with && (or returns 1) so its first failing command fails it.
step() {
    name=$1
    shift
    say "$name"
    if ! "$@"; then
        echo "ci: step failed: $name" >&2
        failed="$failed
  - $name"
    fi
}

lint_json() {
    # Non-allowed findings fail the gate; the JSON report is archived
    # either way so CI can surface it as an artifact. Build the binary
    # outside the timed region so the budget measures the lint itself,
    # not rustc.
    cargo build --release -q -p liberate-lint || return 1
    lint_start=$(date +%s%N)
    if ! ./target/release/liberate-lint --root . --json > target/lint-report.json; then
        cat target/lint-report.json
        echo "liberate-lint: non-allowed findings (see target/lint-report.json)" >&2
        return 1
    fi
    lint_end=$(date +%s%N)
    lint_ms=$(( (lint_end - lint_start) / 1000000 ))
    echo "liberate-lint walltime: ${lint_ms}ms (budget: <5000ms)"
    if [ "$lint_ms" -ge 5000 ]; then
        echo "liberate-lint: full-workspace lint took ${lint_ms}ms, over budget" >&2
        return 1
    fi
}

examples() {
    # The runnable examples narrate whole scenarios end to end; together
    # they take ~13 s in release.
    for example in quickstart expose_classifier_rules unthrottle_video \
        censorship_circumvention capture_to_pcap beyond_the_paper; do
        cargo run --release -q --example "$example" >/dev/null || return 1
    done
}

testbed_trace() {
    cargo run --release -q -p liberate-bench --bin exp-testbed -- --trace target/trace.jsonl >/dev/null &&
        cargo run --release -q -p liberate-obs --bin obs-check -- target/trace.jsonl
}

testbed_rerun_diff() {
    # A second sequential run at the same (default) seed: the exported
    # journal — span ids, histograms, counters, every event — must diff
    # clean against the first. obs-query exits 1 on any drift.
    cargo run --release -q -p liberate-bench --bin exp-testbed -- --trace target/trace-rerun.jsonl >/dev/null &&
        cargo run --release -q -p liberate-obs --bin obs-query -- diff target/trace.jsonl target/trace-rerun.jsonl
}

testbed_parallel_trace() {
    cargo run --release -q -p liberate-bench --bin exp-testbed -- --workers 4 --trace target/trace-parallel.jsonl >/dev/null &&
        cargo run --release -q -p liberate-obs --bin obs-check -- target/trace-parallel.jsonl
}

deploy_trace() {
    # Asserts internally: ONE re-characterization per scripted rule flip,
    # the adapted technique at 2 and 4 workers equal to the one-worker
    # pool's, and >= 1.5x recovery-throughput scaling.
    cargo run --release -q -p liberate-bench --bin exp-deploy -- --workers 4 --trace target/trace-deploy.jsonl >/dev/null &&
        cargo run --release -q -p liberate-obs --bin obs-check -- target/trace-deploy.jsonl
}

bench_bin() {
    cargo run --release -q -p liberate-bench --bin "$@" >/dev/null
}

perfbench_smoke() {
    # Every workload must build, run its checked operations, and report
    # `"correct": true` with no failed operation on its result line. Its
    # simulated-work counts must equal the pinned ones in
    # tests/fixtures/perfbench_counts.json (host timings are not pinned):
    # a performance change must not change the work. Allocation figures
    # are deterministic for a given toolchain, and those listed in
    # tests/fixtures/perfbench_alloc_ceilings.json (traced learn `allocs`
    # and `alloc_mb`, traced deploy and adapt `allocs`) must not exceed
    # their ceilings.
    ok=0
    for workload in learn deploy adapt; do
        result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
        echo "$workload: $result"
        printf '%s' "$result" | python3 -c '
import json, sys
workload, counts, ceilings = sys.argv[1:]
result = json.loads(sys.stdin.read())
got = {k: m.get("value") for k, m in result["metrics"].items()}
bad = []
if result["correct"] is not True or result["failed"] != 0:
    bad.append("incorrect or failed operations")
for k, v in json.load(open(counts))[workload].items():
    if got.get(k) != v:
        bad.append(f"{k}: pinned {v} in {counts}, got {got.get(k)}")
for k, v in json.load(open(ceilings)).get(workload, {}).items():
    if got.get(k) is None or got[k] > v:
        bad.append(f"{k}: ceiling {v} in {ceilings}, got {got.get(k)}")
for b in bad:
    print(f"perfbench {workload}: {b}", file=sys.stderr)
sys.exit(1 if bad else 0)
' "$workload" tests/fixtures/perfbench_counts.json tests/fixtures/perfbench_alloc_ceilings.json || ok=1
    done
    return $ok
}

if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check" cargo fmt --all --check
else
    say "cargo fmt unavailable; skipping format check"
fi

step "cargo build --release" cargo build --release

step "liberate-lint --json (report: target/lint-report.json)" lint_json

# Examples, binaries and test targets of every crate must compile too.
step "cargo build --workspace --all-targets" cargo build --workspace --all-targets

# Rustdoc must build warning-free (dead or private intra-doc links,
# ambiguous link targets); ~12 s cold.
step "cargo doc -D warnings" env RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

# Every crate's unit and integration tests, the root package's tier-1
# suites (`cargo test -q`) included.
step "cargo test --workspace -q" cargo test --workspace -q

step "examples (each must exit 0)" examples

step "exp-testbed --trace + journal validation" testbed_trace

step "obs-query diff (same-seed reruns must show zero drift)" testbed_rerun_diff

step "exp-testbed --workers 4 (bare-session parity) + journal validation" testbed_parallel_trace

# Each bench binary from here on rewrites its results/BENCH_<name>.json
# and appends the dataset to results/BENCH_history.jsonl, skipping an
# exact repeat of a line already there.
step "exp-deploy --workers 4 --trace (deployment pool gates, regenerates results/BENCH_deploy.json)" deploy_trace

# Drives the automaton and the rescan reference at the matcher layer (no
# device) over the same synthetic flows, asserts per-packet verdict
# parity, and gates: >= 5x fewer bytes scanned on the largest trace, the
# automaton within 1.05x of the rescan's host time in every cell, and no
# slower than the rescan in aggregate on the largest trace.
step "exp-matcher (matcher parity + speedup gates, regenerates results/BENCH_matcher.json)" bench_bin exp-matcher

# Asserts internally: steady-wave host cost stays flat from 1 to 4
# workers (<= 1.05x). The zero-payload-deep-copy gate (process census and
# journal payload-copies counter) is the test tests/payload_copy_census.rs,
# run by the workspace test step above.
step "exp-hotpath (worker-scaling gate, regenerates results/BENCH_hotpath.json)" bench_bin exp-hotpath

# Asserts internally: journal-on vs journal-off overhead under 10% host
# wall-clock and byte-identical exports across repetitions.
step "exp-obs (tracing-overhead gate, regenerates results/BENCH_obs.json)" bench_bin exp-obs

# Asserts internally: every flow of a 20k-concurrent-flow deployment wave
# runs as a reactor task and reports, marginal peak heap (counted by the
# binary's global allocator) stays under 1.5 KiB per flow, and aggregate
# memory grows sub-linearly across a 100x flow scale-up. The full 100k-flow curve runs via
# `cargo run --release -p liberate-bench --bin exp-scale`.
step "exp-scale --flows 20000 (reactor scale gates, regenerates results/BENCH_scale.json)" \
    bench_bin exp-scale -- --flows 20000

# Lowers all six profile rule sets through NftSubstrate with the
# recording sink and diffs the emitted nftables programs (and the
# counter->verdict mapping) against the checked-in goldens. Catches wire
# program drift the sim-backed suites never exercise. Regenerate after a
# deliberate lowering change with UPDATE_FIXTURES=1.
step "nft backend goldens (recording loopback fixture vs tests/fixtures/nft/)" \
    cargo test -q --test nft_fixtures

step "perfbench smoke (learn / deploy / adapt, traced, 1 s each)" perfbench_smoke

if [ -n "$failed" ]; then
    printf '\n== ci: FAILED steps:%s\n' "$failed" >&2
    exit 1
fi
say "ci: all green"
