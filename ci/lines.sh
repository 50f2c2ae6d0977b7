#!/usr/bin/env bash
# The line ruler: non-test lines of every library and binary source file,
# written as LINES.json (per file, per crate, in total) plus the length of
# DESIGN.md. A file's non-test lines are its lines up to the first
# `#[cfg(test)]`; files under a crate's `tests/` are all test and are not
# counted. The facade's `src/` counts as the crate `turnroute`.
#
#   ./ci/lines.sh            # rewrite LINES.json
#   ./ci/lines.sh FILE       # write the report to FILE instead
#
# `ci/check.sh` regenerates the report and fails if the committed one is
# stale, so every change's diff of LINES.json is its line delta.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-LINES.json}"

export LC_ALL=C
find crates/*/src src -name '*.rs' | sort | while read -r file; do
    lines="$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
    crate="$(echo "$file" | sed -n 's|^crates/\([^/]*\)/.*|\1|p')"
    echo "${crate:-turnroute} $file $lines"
done | awk -v design="$(wc -l < DESIGN.md)" '
    {
        files[NR] = sprintf("    \"%s\": %d", $2, $3)
        if (!($1 in crate)) { names[++n] = $1 }
        crate[$1] += $3
        total += $3
    }
    END {
        print "{"
        print "  \"rule\": \"non-test lines: each .rs file under crates/*/src and src, up to its first #[cfg(test)]\","
        printf "  \"total\": %d,\n", total
        printf "  \"design_md\": %d,\n", design
        print "  \"crates\": {"
        for (i = 1; i <= n; i++) {
            printf "    \"%s\": %d%s\n", names[i], crate[names[i]], i < n ? "," : ""
        }
        print "  },"
        print "  \"files\": {"
        for (i = 1; i <= NR; i++) {
            printf "%s%s\n", files[i], i < NR ? "," : ""
        }
        print "  }"
        print "}"
    }' > "$out"
