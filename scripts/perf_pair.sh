#!/usr/bin/env bash
# The perf gate: times the working tree's kernel benches against a base
# commit's on the same host, alternately, so a host that slows down as a
# whole slows both sides alike.
#
# Extracts <base-ref> with `git archive`, builds the `kernels` and
# `parallel_compute` bench binaries of the base and of the working tree
# (each in its own target directory, copied out at once: both trees can
# yield the same file name), then runs the two sides alternately, RUNS
# runs each at the harness's default iterations, swapping which side goes
# first. Each run writes its reports to bench_results/perf_pair/<side>/<n>/
# (ignored by git, kept for inspection). `bench_record kernels` then gates
# every entry on its fastest sample, change over base: see
# crates/bench/src/bin/bench_record.rs for the bounds. Exit status is the
# gate's. About 7 minutes of runs plus the base's build on 2 cores.
#
# Usage: scripts/perf_pair.sh <base-ref>
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

base_ref="${1:?usage: scripts/perf_pair.sh <base-ref>}"
base_sha="$(git rev-parse --verify "$base_ref^{commit}")"
# Each side's fastest sample must catch the host's fast windows. On a
# 2-vCPU host that switches between a fast and a ~1.6x slower mode, an
# unchanged tree failed 3 of 6 gates at 10 runs and passed 5 of 5 at 20.
# If the sides do not separate, raise this, not the bounds.
RUNS=20
BENCHES=(kernels parallel_compute)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/tree" "$work/base" "$work/change"
git archive "$base_sha" | tar -x -C "$work/tree"

# Builds the bench binaries of the tree at $1 and copies them into $2.
build() {
    local exe bench
    exe="$(cd "$1" && cargo bench --offline -q -p cascade-bench \
        "${BENCHES[@]/#/--bench=}" --no-run --message-format=json |
        grep -o '"executable":"[^"]*"' | cut -d'"' -f4)"
    for bench in "${BENCHES[@]}"; do
        cp "$(grep "/$bench-[0-9a-f]*$" <<<"$exe")" "$2/$bench"
    done
}
echo "perf_pair: building base ${base_sha:0:12} and the working tree" >&2
CARGO_TARGET_DIR="$work/target" build "$work/tree" "$work/base"
build "$root" "$work/change"
# Built now, so that no compile overlaps the timed runs.
cargo build -q --release --offline -p cascade-bench --bin bench_record

runs=bench_results/perf_pair
rm -rf "$runs"
for n in $(seq -w 1 "$RUNS"); do
    sides=(base change)
    ((10#$n % 2)) || sides=(change base)
    for side in "${sides[@]}"; do
        mkdir -p "$runs/$side/$n"
        for bench in "${BENCHES[@]}"; do
            env -u CASCADE_BENCH_ITERS -u CASCADE_BENCH_WARMUP CASCADE_BENCH_DIR="$runs/$side/$n" \
                "$work/$side/$bench" --bench 2>>"$runs/$side/$n/log"
        done
    done
    echo "perf_pair: run $n of $RUNS done (${sides[0]} first)" >&2
done

cargo run -q --release --offline -p cascade-bench --bin bench_record -- \
    kernels "$runs/base" "$runs/change"
