#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (perfbench) between a base
# revision and the working tree.
#
# Exports <base-rev> with `git archive` into build-ab/src-<rev>, builds
# each side's perfbench into its own directory (build-ab/target-base-<rev>,
# build-ab/target-head, via CARGO_TARGET_DIR; any other revision's
# src-* and target-base-* directories are removed first), then runs
# alternating pairs — even pairs base first, odd pairs head first, so
# slow drift of the host cancels — and prints per-pair host ns/access,
# the medians, the base IQR, how many pairs the head won, the median
# setup_s and peak RSS of each side, and whether the simulated-output
# fingerprints and every sim_*/ok_frac metric agree. Each side's build and run
# stderr goes to build-ab/<side>.log; a failing run prints its tail.
#
# Usage: scripts/perf_ab.sh <base-rev> <workload> [pairs] [seed]
#   pairs defaults to 10, seed to 1; PERF_AB_SECONDS (default 10) sets
#   the measured seconds per run.
#   e.g. scripts/perf_ab.sh HEAD~1 mmap_update 10 9001

set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
    exit 2
fi

base_rev="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-1}"
seconds="${PERF_AB_SECONDS:-10}"

root="$(cd "$(dirname "$0")/.." && pwd)"
ab="${root}/build-ab"
rev="$(git -C "${root}" rev-parse --short "${base_rev}")"
base_src="${ab}/src-${rev}"

mkdir -p "${ab}"
# Keep one base: drop every other revision's export and build.
for old in "${ab}"/src-* "${ab}"/target-base-*; do
    case "${old}" in
        "${base_src}" | "${ab}/target-base-${rev}") ;;
        *) rm -rf "${old}" ;;
    esac
done
if [ ! -d "${base_src}" ]; then
    mkdir -p "${base_src}.tmp"
    git -C "${root}" archive "${rev}" | tar -x -C "${base_src}.tmp"
    mv "${base_src}.tmp" "${base_src}"
fi

out="${ab}/runs-${workload}-seed${seed}.jsonl"
: > "${out}"

run_side() {
    local side="$1" src target
    if [ "${side}" = base ]; then
        src="${base_src}"
        target="${ab}/target-base-${rev}"
    else
        src="${root}"
        target="${ab}/target-head"
    fi
    local lines log="${ab}/${side}.log"
    if ! lines="$(CARGO_TARGET_DIR="${target}" python3 \
        "${src}/perfbench/run.py" --workload "${workload}" \
        --seed "${seed}" --seconds "${seconds}" --trace 0 2>"${log}")"; then
        echo "perf_ab: ${side} run failed; tail of ${log}:" >&2
        tail -n 20 "${log}" >&2
        exit 1
    fi
    printf '%s\n' "${lines}" | tail -n 2 |
        python3 -c 'import json, sys
ctx, res = (json.loads(l) for l in sys.stdin)
print(json.dumps({"side": sys.argv[1], "pair": int(sys.argv[2]),
                  "fingerprint": ctx["context"]["fingerprint"],
                  "correct": res["correct"],
                  "metrics": res["metrics"]}))' "${side}" "$2" >> "${out}"
}

for ((i = 0; i < pairs; ++i)); do
    if ((i % 2 == 0)); then
        run_side base "${i}"
        run_side head "${i}"
    else
        run_side head "${i}"
        run_side base "${i}"
    fi
    echo "pair $((i + 1))/${pairs} done" >&2
done

python3 - "${out}" "${rev}" "${workload}" "${seed}" <<'EOF'
import json
import statistics
import sys

path, rev, workload, seed = sys.argv[1:]
runs = [json.loads(l) for l in open(path)]
side = {"base": {}, "head": {}}
for r in runs:
    side[r["side"]][r["pair"]] = r
pairs = sorted(side["base"])


def metric(s, name):
    return [side[s][p]["metrics"][name]["value"] for p in pairs]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


base_ns = metric("base", "host_ns_per_access")
head_ns = metric("head", "host_ns_per_access")
print(f"perf A/B: {workload} seed {seed}, base {rev} vs working tree")
print(f"{'pair':>4} {'base ns':>9} {'head ns':>9} {'head/base':>9}")
for p, b, h in zip(pairs, base_ns, head_ns):
    print(f"{p + 1:>4} {b:>9.1f} {h:>9.1f} {h / b:>9.3f}")
mb, mh = statistics.median(base_ns), statistics.median(head_ns)
q1, q3 = quartiles(base_ns)
wins = sum(h < b for b, h in zip(base_ns, head_ns))
print(f"median ns/access: base {mb:.1f}, head {mh:.1f}, "
      f"head/base {mh / mb:.3f}")
print(f"base IQR {q3 - q1:.1f} ns; median gain {mb - mh:.1f} ns; "
      f"head wins {wins}/{len(pairs)}")
for name in ("setup_s", "host_peak_rss_mb"):
    print(f"median {name}: base {statistics.median(metric('base', name)):.3f}, "
          f"head {statistics.median(metric('head', name)):.3f}")
fps = {s: {side[s][p]["fingerprint"] for p in pairs} for s in side}
print(f"fingerprints: base {sorted(fps['base'])}, head {sorted(fps['head'])}, "
      f"equal: {fps['base'] == fps['head'] and len(fps['base']) == 1}")
sim = sorted(k for k in runs[0]["metrics"]
             if k.startswith("sim_") or k == "ok_frac")
same = all(side["base"][p]["metrics"][k] == side["head"][p]["metrics"][k]
           for p in pairs for k in sim)
print(f"sim_* and ok_frac identical: {same}; "
      f"all runs correct: {all(r['correct'] for r in runs)}")
EOF
