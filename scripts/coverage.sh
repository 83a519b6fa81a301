#!/usr/bin/env bash
# Runtime coverage census: every function defined in a src/**/*.cc file
# that no figure, sweep, example or repository-benchmark run enters.
#
# Builds the simulator in a Debug configuration at -O0 with gcov
# counters (--coverage -fprofile-update=atomic) twice: the main tree
# under <dir>/sim and perfbench (configured from perfbench/, which
# compiles src/ itself) under <dir>/perfbench. Runs, each from its own
# directory <dir>/run/<name>:
#   - the 14 figure and table binaries of scripts/identical.sh,
#   - macro_endtoend,
#   - the four examples,
#   - perfbench's three workloads (seed 1, 1 s each).
# Then merges the `gcov -j` output of both builds by function and
# prints each src/**/*.cc function whose execution count is 0 as
# `<file>:<line> <function>`, sorted by file and line. The same list
# goes to <dir>/uncovered.txt.
#
# Why these flags:
#   - -O0: an optimised build misreports coverage (inlined and merged
#     code is credited elsewhere, so functions that run show as never
#     run);
#   - -fprofile-update=atomic: the sweeps run cells on worker threads,
#     and non-atomic counters race (a counter can even read negative);
#   - only .cc functions count: a header inline has one copy per
#     translation unit, and an unused copy reads 0 while another runs.
#
# Exits 1 if a build fails or a run exits non-zero (after printing the
# list), else 0. The list itself never fails the census.
#
# Usage: scripts/coverage.sh
#   COVERAGE_DIR (default: build-coverage in the repo root) holds both
#   builds, the run directories and the list. HAMS_BENCH_THREADS and
#   HAMS_BENCH_SCALE reach the runs unchanged. Each run's wall time is
#   printed on stderr. About 20 minutes on 4 CPUs; at -O0 fig_scaleout,
#   macro_endtoend, fig_recovery and perfbench's tp_read_hits run take
#   2-5 minutes each.

set -euo pipefail

bins=(fig05_ull_character fig06_mmf_performance fig07_sw_overhead
      fig10a_dma_overhead fig16_app_perf fig17_exec_breakdown
      fig18_memory_delay fig19_energy fig20_sensitivity fig_gc
      fig_multicore fig_recovery fig_scaleout table1_features
      macro_endtoend)
examples=(quickstart kv_store crash_recovery platform_explorer)
workloads=(tp_read_hits te_update_gc4 mmap_update)

root="$(cd "$(dirname "$0")/.." && pwd)"
dir="${COVERAGE_DIR:-${root}/build-coverage}"
mkdir -p "${dir}"
dir="$(cd "${dir}" && pwd)"
flags="-O0 --coverage -fprofile-update=atomic"
gen=()
if command -v ninja > /dev/null; then
    gen=(-G Ninja)
fi

# build <name> <source dir> <target>...
build() {
    local name="$1" src="$2"
    shift 2
    echo "coverage: building ${name}" >&2
    if ! { cmake -S "${src}" -B "${dir}/${name}" "${gen[@]}" \
               -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="${flags}" \
               -DHAMS_BUILD_TESTS=OFF &&
           cmake --build "${dir}/${name}" --target "$@" \
               -j"$(nproc)"; } > "${dir}/${name}.log" 2>&1; then
        echo "coverage: ${name} build failed; tail of ${dir}/${name}.log:" >&2
        tail -n 20 "${dir}/${name}.log" >&2
        exit 1
    fi
}

build sim "${root}" "${bins[@]}" "${examples[@]}"
build perfbench "${root}/perfbench" perfbench

# Counters accumulate across runs, so start from zero.
find "${dir}/sim" "${dir}/perfbench" -name '*.gcda' -delete
rm -rf "${dir}/run"
unset HAMS_BENCH_JSON

failed=0
# run <name> <command>...
run() {
    local name="$1"
    shift
    local start="${SECONDS}"
    mkdir -p "${dir}/run/${name}"
    if ! (cd "${dir}/run/${name}" && "$@" > stdout.txt 2> stderr.txt); then
        echo "coverage: ${name} exited non-zero (see" \
             "${dir}/run/${name}/stderr.txt)" >&2
        failed=1
    fi
    echo "coverage: ran ${name} ($((SECONDS - start)) s)" >&2
}

for b in "${bins[@]}" "${examples[@]}"; do
    run "${b}" "${dir}/sim/${b}"
done
for w in "${workloads[@]}"; do
    run "perfbench-${w}" "${dir}/perfbench/perfbench" --workload "${w}" \
        --seed 1 --seconds 1
done

echo "coverage: merging gcov output" >&2
rm -rf "${dir}/gcov"
mkdir -p "${dir}/gcov"
(cd "${dir}/gcov" &&
    find "${dir}/sim" "${dir}/perfbench" -name '*.gcda' -print0 |
    xargs -0 -r -n 32 gcov -j -p > /dev/null)

python3 - "${root}" "${dir}/gcov" "${dir}/uncovered.txt" <<'EOF'
import gzip, json, os, sys

root, gcov_dir, out_path = sys.argv[1:4]
counts = {}  # (file, start line, function) -> entries, summed over builds
for name in os.listdir(gcov_dir):
    if not name.endswith('.gcov.json.gz'):
        continue
    with gzip.open(os.path.join(gcov_dir, name), 'rt') as f:
        doc = json.load(f)
    cwd = doc.get('current_working_directory', '')
    for src in doc['files']:
        rel = os.path.relpath(
            os.path.realpath(os.path.join(cwd, src['file'])), root)
        if not (rel.startswith('src' + os.sep) and rel.endswith('.cc')):
            continue
        for fn in src['functions']:
            # Constructor and destructor variants share a demangled name.
            key = (rel, fn['start_line'], fn['demangled_name'])
            counts[key] = counts.get(key, 0) + fn['execution_count']

if not counts:
    sys.exit('coverage: no src/**/*.cc functions in the gcov output')
never = sorted(k for k, n in counts.items() if n == 0)
lines = ['%s:%d %s' % k for k in never]
with open(out_path, 'w') as f:
    f.write(''.join(l + '\n' for l in lines))
print('\n'.join(lines))
print('coverage: %d of %d src/**/*.cc functions never run'
      % (len(never), len(counts)), file=sys.stderr)
EOF

exit "${failed}"
