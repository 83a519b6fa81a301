#!/usr/bin/env bash
# Byte-identity check of the figure and table binaries between a base
# revision and the working tree.
#
# Exports <base-rev> with `git archive` into <dir>/src-<rev>, builds it
# and the working tree in Release (<dir>/build-base-<rev>,
# <dir>/build-head), removing any other revision's src-* and
# build-base-* directories first, then runs the 14 figure and table binaries of
# each side, each from its own empty directory (<dir>/run-<side>/<bin>)
# with HAMS_BENCH_JSON unset: every binary writes its BENCH_*.json
# under the default relative name, so its "Results written to" line is
# the same on both sides. It compares each binary's stdout, exit
# status and JSON files byte for byte, in the order listed below,
# printing one line and the head of the diff for every (binary, file)
# that differs. After comparing all of them it exits 1 if any differed,
# and 0 with a summary line when all 14 are identical.
#
# Usage: scripts/identical.sh <base-rev>
#   IDENTICAL_DIR (default: build-identical in the repo root) holds the
#   export, both builds and the run directories.
#   HAMS_BENCH_SCALE and HAMS_BENCH_THREADS reach both sides unchanged.
#   e.g. scripts/identical.sh HEAD~1

set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
    exit 2
fi

bins=(fig05_ull_character fig06_mmf_performance fig07_sw_overhead
      fig10a_dma_overhead fig16_app_perf fig17_exec_breakdown
      fig18_memory_delay fig19_energy fig20_sensitivity fig_gc
      fig_multicore fig_recovery fig_scaleout table1_features)

root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${IDENTICAL_DIR:-${root}/build-identical}"
mkdir -p "${dir}"
dir="$(cd "${dir}" && pwd)"
rev="$(git -C "${root}" rev-parse --short "$1")"
base_src="${dir}/src-${rev}"

# Keep one base: drop every other revision's export and build.
for old in "${dir}"/src-* "${dir}"/build-base-*; do
    case "${old}" in
        "${base_src}" | "${dir}/build-base-${rev}") ;;
        *) rm -rf "${old}" ;;
    esac
done

if [ ! -d "${base_src}" ]; then
    rm -rf "${base_src}.tmp"
    mkdir -p "${base_src}.tmp"
    git -C "${root}" archive "${rev}" | tar -x -C "${base_src}.tmp"
    mv "${base_src}.tmp" "${base_src}"
fi

unset HAMS_BENCH_JSON

# build_and_run <side> <source dir> <build dir>
build_and_run() {
    local side="$1" src="$2" build="$3"
    local log="${dir}/${side}.log"
    echo "identical: building ${side} (${src})" >&2
    if ! { cmake -S "${src}" -B "${build}" -DCMAKE_BUILD_TYPE=Release \
               -DHAMS_BUILD_TESTS=OFF -DHAMS_BUILD_EXAMPLES=OFF &&
           cmake --build "${build}" --target "${bins[@]}" \
               -j"$(nproc)"; } > "${log}" 2>&1; then
        echo "identical: ${side} build failed; tail of ${log}:" >&2
        tail -n 20 "${log}" >&2
        exit 1
    fi
    rm -rf "${dir}/run-${side}"
    local b status
    for b in "${bins[@]}"; do
        echo "identical: running ${side} ${b}" >&2
        mkdir -p "${dir}/run-${side}/${b}"
        status=0
        (cd "${dir}/run-${side}/${b}" &&
            "${build}/${b}" > stdout.txt 2> stderr.txt) || status=$?
        echo "${status}" > "${dir}/run-${side}/${b}/status.txt"
    done
}

build_and_run base "${base_src}" "${dir}/build-base-${rev}"
build_and_run head "${root}" "${dir}/build-head"

differing=0
for b in "${bins[@]}"; do
    base_run="${dir}/run-base/${b}"
    head_run="${dir}/run-head/${b}"
    files="$( { ls "${base_run}"; ls "${head_run}"; } |
              grep -v '^stderr.txt$' | sort -u)"
    same=1
    for f in ${files}; do
        if ! cmp -s "${base_run}/${f}" "${head_run}/${f}"; then
            echo "identical: ${b} differs in ${f} (base ${rev} vs working tree)"
            diff "${base_run}/${f}" "${head_run}/${f}" | head -n 20 || true
            same=0
            differing=$((differing + 1))
        fi
    done
    if [ "${same}" = 1 ] && [ "$(cat "${head_run}/status.txt")" != 0 ]; then
        echo "identical: warning: ${b} exits $(cat "${head_run}/status.txt")" \
             "on both sides (see ${head_run}/stderr.txt)" >&2
    fi
done
if [ "${differing}" != 0 ]; then
    echo "identical: ${differing} (binary, file) pairs differ" \
         "(base ${rev} vs working tree)"
    exit 1
fi
echo "identical: stdout, exit status and JSON of all ${#bins[@]} binaries" \
     "are byte-identical (base ${rev} vs working tree)"
