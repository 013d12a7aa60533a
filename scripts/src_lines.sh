#!/usr/bin/env bash
# Prints the non-test source lines under `crates/*/src` (the count
# ROADMAP item 10 tracks): one line per crate, then the total.
#
# Method, applied to every `*.rs` file under `crates/*/src` (binaries
# included, `tests/` and `benches/` directories excluded): a line counts
# unless it is
#   * blank,
#   * a comment line — its first non-blank characters are `//` (so
#     `///` and `//!` doc lines too), or
#   * part of an item marked `#[cfg(test)]`: the attribute line, and the
#     item after it up to the line on which its braces close (an item with
#     no braces ends at its first line ending in `;`). Braces are counted
#     as characters, including any inside string literals.
#
# Usage: scripts/src_lines.sh [repo-root]    (default: this script's repo)
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    lines=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        # Feeds one line of a cfg(test) item; clears `skip` at its end.
        function eat(line,    opens, closes) {
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if (opened && depth <= 0) skip = 0
            else if (!opened && line ~ /;[[:space:]]*$/) skip = 0
        }
        FNR == 1 { skip = 0 }
        skip { eat($0); next }
        /^[[:space:]]*#\[cfg\(test\)\]/ {
            skip = 1; depth = 0; opened = 0
            rest = $0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", rest)
            if (rest ~ /[^[:space:]]/) eat(rest)
            next
        }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ')
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
