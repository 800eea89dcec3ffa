#!/usr/bin/env sh
# Tier-1 gate, runnable locally or in CI. Mirrors what the test suite
# enforces, plus formatting when the toolchain component is installed.
#
# Exit: non-zero on the first failing step.
set -eu

cd "$(dirname "$0")/.."

say() { printf '\n== %s\n' "$*"; }

if cargo fmt --version >/dev/null 2>&1; then
    say "cargo fmt --check"
    cargo fmt --all --check
else
    say "cargo fmt unavailable; skipping format check"
fi

say "cargo build --release"
cargo build --release

say "liberate-lint --json (report: target/lint-report.json)"
# Non-allowed findings fail the gate; the JSON report is archived either
# way so CI can surface it as an artifact. Build the binary outside the
# timed region so the budget measures the lint itself, not rustc.
cargo build --release -q -p liberate-lint
lint_start=$(date +%s%N)
if ! ./target/release/liberate-lint --root . --json > target/lint-report.json; then
    cat target/lint-report.json
    echo "liberate-lint: non-allowed findings (see target/lint-report.json)" >&2
    exit 1
fi
lint_end=$(date +%s%N)
lint_ms=$(( (lint_end - lint_start) / 1000000 ))
say "liberate-lint walltime: ${lint_ms}ms (budget: <5000ms)"
if [ "$lint_ms" -ge 5000 ]; then
    echo "liberate-lint: full-workspace lint took ${lint_ms}ms, over budget" >&2
    exit 1
fi

say "cargo build --workspace --all-targets"
# Examples, binaries and test targets of every crate must compile too.
cargo build --workspace --all-targets

say "cargo test --workspace -q"
# Every crate's unit and integration tests, the root package's tier-1
# suites (`cargo test -q`) included.
cargo test --workspace -q

say "examples (each must exit 0)"
# The runnable examples narrate whole scenarios end to end; together
# they take ~13 s in release.
for example in quickstart expose_classifier_rules unthrottle_video \
    censorship_circumvention capture_to_pcap beyond_the_paper; do
    cargo run --release -q --example "$example" >/dev/null
done

say "exp-testbed --trace + journal validation"
cargo run --release -q -p liberate-bench --bin exp-testbed -- --trace target/trace.jsonl >/dev/null
cargo run --release -q -p liberate-obs --bin obs-check -- target/trace.jsonl

say "obs-query diff (same-seed reruns must show zero drift)"
# A second sequential run at the same (default) seed: the exported
# journal — span ids, histograms, counters, every event — must diff
# clean against the first. obs-query exits 1 on any drift.
cargo run --release -q -p liberate-bench --bin exp-testbed -- --trace target/trace-rerun.jsonl >/dev/null
cargo run --release -q -p liberate-obs --bin obs-query -- diff target/trace.jsonl target/trace-rerun.jsonl

say "exp-testbed --workers 4 (bare-session parity) + journal validation"
cargo run --release -q -p liberate-bench --bin exp-testbed -- --workers 4 --trace target/trace-parallel.jsonl >/dev/null
cargo run --release -q -p liberate-obs --bin obs-check -- target/trace-parallel.jsonl

say "exp-parallel (regenerates results/BENCH_parallel.json)"
# Each bench binary from here on rewrites its results/BENCH_<name>.json
# and appends the dataset to results/BENCH_history.jsonl, skipping an
# exact repeat of a line already there.
cargo run --release -q -p liberate-bench --bin exp-parallel >/dev/null

say "exp-deploy --workers 4 --trace (deployment pool gates, regenerates results/BENCH_deploy.json)"
# Asserts internally: ONE re-characterization per scripted rule flip,
# the adapted technique at 2 and 4 workers equal to the one-worker
# pool's, and >= 1.5x recovery-throughput scaling.
cargo run --release -q -p liberate-bench --bin exp-deploy -- --workers 4 --trace target/trace-deploy.jsonl >/dev/null
cargo run --release -q -p liberate-obs --bin obs-check -- target/trace-deploy.jsonl

say "exp-matcher (matcher parity + speedup gate, regenerates results/BENCH_matcher.json)"
# Asserts internally that the automaton scans >= 5x fewer bytes and is
# no slower than the naive matcher on the largest synthetic trace.
cargo run --release -q -p liberate-bench --bin exp-matcher >/dev/null

say "exp-hotpath (hot-path gates, regenerates results/BENCH_hotpath.json)"
# Asserts internally: zero payload deep-copies per replay (process census
# and journal payload-copies counter), and steady-wave host cost stays
# flat from 1 to 4 workers (<= 1.05x).
cargo run --release -q -p liberate-bench --bin exp-hotpath >/dev/null

say "exp-obs (tracing-overhead gate, regenerates results/BENCH_obs.json)"
# Asserts internally: journal-on vs journal-off overhead under 10% host
# wall-clock and byte-identical exports across repetitions.
cargo run --release -q -p liberate-bench --bin exp-obs >/dev/null

say "exp-scale --flows 20000 (reactor scale gates, regenerates results/BENCH_scale.json)"
# Asserts internally: every flow of a 20k-concurrent-flow deployment wave
# runs as a reactor task and reports, marginal peak heap (counted by the
# binary's global allocator) stays under 64 KiB per flow, and aggregate
# memory grows sub-linearly across a 100x flow scale-up. The full 100k-flow curve runs via
# `cargo run --release -p liberate-bench --bin exp-scale`.
cargo run --release -q -p liberate-bench --bin exp-scale -- --flows 20000 >/dev/null

say "nft backend goldens (recording loopback fixture vs tests/fixtures/nft/)"
# Lowers all six profile rule sets through NftSubstrate with the
# recording sink and diffs the emitted nftables programs (and the
# counter->verdict mapping) against the checked-in goldens. Catches wire
# program drift the sim-backed suites never exercise. Regenerate after a
# deliberate lowering change with UPDATE_FIXTURES=1.
cargo test -q --test nft_fixtures

say "perfbench smoke (learn / deploy / adapt, traced, 1 s each)"
# Every workload must build, run its checked operations, and report
# `"correct": true` with no failed operation on its result line. Its
# simulated-work counts must equal the pinned ones in
# tests/fixtures/perfbench_counts.json (host timings are not pinned): a
# performance change must not change the work. Allocation figures are
# deterministic for a given toolchain, and those listed in
# tests/fixtures/perfbench_alloc_ceilings.json (traced learn `allocs`
# and `alloc_mb`, traced deploy and adapt `allocs`) must not exceed their
# ceilings.
for workload in learn deploy adapt; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    echo "$workload: $result"
    if ! printf '%s' "$result" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
'; then
        echo "perfbench $workload: incorrect or failed operations" >&2
        exit 1
    fi
    if ! printf '%s' "$result" | python3 -c '
import json, sys
workload, fixture = sys.argv[1], sys.argv[2]
got = json.loads(sys.stdin.read())["metrics"]
want = json.load(open(fixture))[workload]
bad = [(k, v, got.get(k, {}).get("value")) for k, v in want.items() if got.get(k, {}).get("value") != v]
for k, v, g in bad:
    print(f"  {k}: pinned {v}, got {g}", file=sys.stderr)
sys.exit(1 if bad else 0)
' "$workload" tests/fixtures/perfbench_counts.json; then
        echo "perfbench $workload: work counts differ from tests/fixtures/perfbench_counts.json" >&2
        exit 1
    fi
    if ! printf '%s' "$result" | python3 -c '
import json, sys
workload, fixture = sys.argv[1], sys.argv[2]
got = json.loads(sys.stdin.read())["metrics"]
ceilings = json.load(open(fixture)).get(workload, {})
bad = [(k, v, got.get(k, {}).get("value")) for k, v in ceilings.items()
       if got.get(k, {}).get("value") is None or got[k]["value"] > v]
for k, v, g in bad:
    print(f"  {k}: ceiling {v}, got {g}", file=sys.stderr)
sys.exit(1 if bad else 0)
' "$workload" tests/fixtures/perfbench_alloc_ceilings.json; then
        echo "perfbench $workload: allocations above tests/fixtures/perfbench_alloc_ceilings.json" >&2
        exit 1
    fi
done

say "ci: all green"
