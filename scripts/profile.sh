#!/usr/bin/env sh
# Sample where perfbench spends its host time, without an external
# profiler.
#
# Usage: scripts/profile.sh <learn|deploy|adapt> [seconds] [frame]
#
# Builds perfbench with frame pointers into .prof_build/, runs the
# workload (seed 1, untraced) under the SIGPROF sampler in
# scripts/profile/sampler.c, and prints the top functions by self and
# inclusive share. `frame` keeps only the samples whose stack passes
# through a function with that name, e.g. 'DeploymentPool<S>::run_flows'
# for the pools' timed work. The timer ticks every 4 ms of CPU time here,
# so a 40 s run gives about 10k samples.
set -eu

cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <learn|deploy|adapt> [seconds] [frame]}
seconds=${2:-40}
frame=${3:-}
out=.prof_build

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$out \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
gcc -O2 -shared -fPIC scripts/profile/sampler.c -o $out/sampler.so

PROF_OUT=$out/samples.bin LD_PRELOAD=$PWD/$out/sampler.so \
    $out/release/liberate-perfbench --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 >/dev/null
python3 scripts/profile/symbolize.py $out/release/liberate-perfbench \
    $out/samples.bin "$frame"
