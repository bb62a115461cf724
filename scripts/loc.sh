#!/usr/bin/env bash
# Non-test, non-comment, non-blank Rust lines per crate: every `*.rs` under
# each crate's `src/` (bins included), counted up to the file's first
# `#[cfg(test)]`. The number simplicity PRs report in CHANGES.md.
#
#   scripts/loc.sh [repo-root]     # default: the checkout this script is in
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"

count() { # count <dir>: sum over the *.rs files below it
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for crate in crates/*/; do
    n=$(count "${crate}src")
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
n=$(count src)
printf '%-12s %6d\n' "facade+cli" "$n"
printf '%-12s %6d\n' "total" "$((total + n))"
