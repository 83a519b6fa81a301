#!/usr/bin/env bash
# Local wrapper for the hot-path contract checker (tools/hamslint).
#
# Builds the tool if needed, runs the rule fixtures, then lints the
# simulator tree. Exits non-zero on any fixture mismatch, any
# unsuppressed hot-path finding, any suppression without a reason, or
# more unresolved call sites than MAX_UNRESOLVED — the same gates as
# the CI `hamslint` job.
#
# Usage: scripts/lint_hotpaths.sh [build-dir]   (default: ./build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
# Call sites hamslint cannot give an edge (ROADMAP item 17); keep in
# step with the CI job's --max-unresolved.
MAX_UNRESOLVED=14

if [ ! -d "$BUILD_DIR" ]; then
    cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" --target hamslint -j"$(nproc)"

LINT="$BUILD_DIR/tools/hamslint/hamslint"

echo "== hamslint rule fixtures =="
"$LINT" --self-test tools/hamslint/fixtures

echo
echo "== hamslint: simulator tree =="
"$LINT" src --max-unresolved "$MAX_UNRESOLVED"
