#!/usr/bin/env bash
# Records one PR's point on the performance trajectory: every workload
# of BENCHMARK.json over several seeds untraced (--trace 0), plus one
# traced pass (--trace 1, seed 1), each through benchmark/run.sh exactly
# as the benchmark's harness calls it, folded into BENCH_<pr>.json at the
# repo root: per workload and metric, median, quartiles, extremes and the
# values in seed order; the traced pass's per-layer metrics; the commit,
# whether the tree had uncommitted changes, and the host's parallelism.
#
# Usage: scripts/bench_record.sh <pr> [seeds] [seconds]
#   seeds    untraced runs per workload, seeds 1..seeds (default 5, at least 5)
#   seconds  measured seconds per run (default: BENCHMARK.json's run_seconds)
#
# BENCH files are append-only history: the script refuses to start when
# BENCH_<pr>.json exists, and the file is created, never replaced. Run
# nothing else on the host meanwhile; four workloads at five seeds take
# about 20 minutes at 30 s a run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage="usage: scripts/bench_record.sh <pr> [seeds] [seconds]"
pr="${1:?$usage}"
seeds="${2:-5}"
[[ "$pr" =~ ^[0-9]+$ ]] || { echo "bench_record: <pr> must be a number ($usage)" >&2; exit 2; }
[[ "$seeds" =~ ^[0-9]+$ ]] && ((seeds >= 5)) || {
    echo "bench_record: at least 5 seeds, got '$seeds'" >&2
    exit 2
}
out="BENCH_${pr}.json"
if [[ -e "$out" ]]; then
    echo "bench_record: $out exists, and BENCH files are never overwritten" >&2
    exit 1
fi

record=(cargo run -q --release --offline -p cascade-bench --bin bench_record --)
seconds="${3:-$(grep -o '"run_seconds": *[0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$')}"
commit="$(git rev-parse HEAD)"
dirty=()
[[ -z "$(git status --porcelain --untracked-files=no)" ]] || dirty=(--dirty)

# Building the benchmark refreshes benchmark/Cargo.lock in place when it
# lags the crates' dependency edges; a lock that was clean before the
# recording is put back afterwards, so the recording changes no file
# under benchmark/.
restore_lock=()
git diff --quiet -- benchmark/Cargo.lock && restore_lock=(git checkout -q -- benchmark/Cargo.lock)

runs="$(mktemp -d)"
trap 'rm -rf "$runs"; "${restore_lock[@]}"' EXIT

# The result is the last line of standard output. A run whose checks
# fail still prints one, with "correct": false, and is recorded as it is;
# a run that prints none stops the recording rather than leave a hole.
run() {
    local file="$1"
    shift
    bash benchmark/run.sh "$@" --seconds "$seconds" | tail -n 1 > "$file" || true
    grep -q '"metrics"' "$file" || { echo "bench_record: no result from run.sh $*" >&2; exit 1; }
}

for w in $("${record[@]}" workloads BENCHMARK.json); do
    mkdir -p "$runs/$w/untraced"
    for seed in $(seq 1 "$seeds"); do
        echo "bench_record: $w seed $seed" >&2
        run "$runs/$w/untraced/seed$(printf %03d "$seed").json" --workload "$w" --seed "$seed" --trace 0
    done
    echo "bench_record: $w traced" >&2
    run "$runs/$w/traced.json" --workload "$w" --seed 1 --trace 1
done

"${record[@]}" write --runs "$runs" --out "$out" --pr "$pr" --commit "$commit" "${dirty[@]}" \
    --host-parallelism "$(nproc)" --seconds "$seconds"
echo "bench_record: wrote $out" >&2
