#!/usr/bin/env bash
# The benchmark's one command. Builds the package from source (offline:
# every dependency is a path into ../crates) and hands its arguments on:
#
#   benchmark/run.sh                         every workload, untraced + traced
#   benchmark/run.sh --workload W --seed N   one workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; last line is the result JSON
#   benchmark/run.sh --compare a.json b.json two results files against the bounds
#
# Cargo's progress goes to standard error, so the result line stays the
# last line of standard output. A failed build prints no result and
# exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" -- "$@"
