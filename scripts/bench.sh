#!/usr/bin/env bash
# Build bench targets in Release and run each from the repo root, where
# it writes its trajectory file: micro_hotpaths -> BENCH_hotpaths.json,
# macro_endtoend -> BENCH_macro.json, fig_<sweep> -> BENCH_<sweep>.json,
# fig19_energy -> BENCH_energy.json.
# The sweeps check their acceptance gates in the binary; a failing gate
# still writes the file, then fails the run (and this script).
#
# Usage: scripts/bench.sh <target>... [-- <args for every target>]
#   e.g. scripts/bench.sh fig_gc fig_recovery
#        scripts/bench.sh micro_hotpaths -- --benchmark_filter='HamsMiss'
#   HAMS_BENCH_SCALE=N enlarges the runs (default 1 = smoke size).
#   HAMS_BENCH_THREADS=N caps the cross-cell worker pool.
#   HAMS_BENCH_JSON=path redirects the output (one target only).

set -euo pipefail

targets=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
    targets+=("$1")
    shift
done
[[ $# -gt 0 ]] && shift
if [[ ${#targets[@]} -eq 0 ]]; then
    echo "usage: $0 <target>... [-- <args>]" >&2
    exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-bench"

cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DHAMS_BUILD_TESTS=OFF \
      -DHAMS_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" --target "${targets[@]}" -j"$(nproc)"

cd "${repo_root}"
for t in "${targets[@]}"; do
    "${build_dir}/${t}" "$@"
done
