#!/usr/bin/env bash
# Line budget (ROADMAP item 5): non-blank Rust lines per crate, plus the
# workspace-level tests/, examples/ and src/, so growth or shrinkage is
# visible PR over PR. `src` is everything outside an in-file test module
# (from a column-0 `#[cfg(test)]` to the end of that file); `tests` is
# those modules plus the crate's tests/ and benches/ directories.
# `benchmark/` is a separate package and is not counted.
#
# usage: scripts/loc_budget.sh [file.rs ...]
# With file arguments, prints the same src/tests split per file instead.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<src> <tests>" for the .rs files named on stdin.
count() {
    xargs -r awk '
        FNR == 1 { in_test = (FILENAME ~ /(^|\/)(tests|benches)\//) }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        /[^[:space:]]/ { if (in_test) tests++; else src++ }
        END { printf "%d %d\n", src, tests }'
}

row() {
    printf '%-28s %8d %8d %8d\n' "$1" "$2" "$3" "$(($2 + $3))"
}

printf '%-28s %8s %8s %8s\n' "non-blank Rust lines" src tests total
if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        read -r s t < <(echo "$f" | count)
        row "$f" "$s" "$t"
    done
    exit 0
fi

total_s=0
total_t=0
for dir in crates/*/ tests/ examples/ src/; do
    [ -d "$dir" ] || continue
    read -r s t < <(find "$dir" -name '*.rs' | sort | count)
    row "${dir%/}" "$s" "$t"
    total_s=$((total_s + s))
    total_t=$((total_t + t))
done
row "workspace" "$total_s" "$total_t"
