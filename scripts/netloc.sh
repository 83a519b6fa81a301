#!/usr/bin/env bash
# Net lines of code between a base revision and the working tree.
#
# Prints added, removed and net lines of .cc, .hh, .cpp, .py and .sh
# files per top-level directory, with src/ split by subdirectory
# (src/ftl, src/core, ...), and a total line. Counts come from
# `git diff --numstat <base-rev>` against the working tree, renames
# counted as a delete plus an add; untracked files that .gitignore does
# not exclude count as added in full. Files at the repository root
# count under ".".
#
# Usage: scripts/netloc.sh <base-rev>
#   e.g. scripts/netloc.sh HEAD~1

set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
    exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${root}"
base="$(git rev-parse --verify --quiet "$1^{commit}")" || {
    echo "netloc: unknown revision $1" >&2
    exit 2
}

{
    git diff --numstat --no-renames "${base}" --
    git ls-files --others --exclude-standard -z |
        while IFS= read -r -d '' f; do
            printf '%s\t0\t%s\n' "$(wc -l < "${f}")" "${f}"
        done
} | awk -F'\t' '
    $3 !~ /\.(cc|hh|cpp|py|sh)$/ || $1 == "-" { next }
    {
        n = split($3, part, "/")
        if (n == 1)
            key = "."
        else if (part[1] == "src" && n > 2)
            key = part[1] "/" part[2]
        else
            key = part[1]
        add[key] += $1
        del[key] += $2
        tadd += $1
        tdel += $2
    }
    END {
        printf "%-16s %8s %8s %8s\n", "directory", "added", "removed", "net"
        for (k in add)
            printf "%-16s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k] | "sort"
        close("sort")
        printf "%-16s %8d %8d %+8d\n", "total", tadd, tdel, tadd - tdel
    }'
