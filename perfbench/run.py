#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload tp_read_hits --seed 1 \
        --seconds 10 --trace 0

Builds the simulator and the benchmark driver from source (Release,
into $CARGO_TARGET_DIR or .bench_build), runs the driver once, and
prints a context line followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics; --trace 1 makes the traced run full length,
reports the per-layer metrics and writes the sampled spans as Chrome
trace-event JSON into the build directory. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tp_read_hits", "te_update_gc4", "mmap_update")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build; build output goes to stderr."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """Digest of the simulator sources, for when git is unavailable."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_at_start = os.getloadavg()[0]
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(
            build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--traced", "--trace-out", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log("perfbench driver exited with code %d" % proc.returncode)
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("perfbench driver printed no result")
        return 1
    res = json.loads(lines[-1])

    context = dict(res["context"])
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "git_rev": git_rev(),
        "src_digest": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "fingerprint": res["fingerprint"],
        "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None,
    })
    print(json.dumps({"context": context}))
    for failure in res["failures"]:
        log("CHECK FAILED:", failure)

    metrics = res["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log("perfbench:", e)
        sys.exit(1)
