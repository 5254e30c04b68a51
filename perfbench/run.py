#!/usr/bin/env python3
"""Fused-vs-serial training benchmark: build, run one workload, check it.

Run from the repository root:

    python3 perfbench/run.py --workload mlp_b8_replay --seed 1 \
        --seconds 20 --trace 0

Builds perfbench (the repository's library plus the benchmark binary) into
.bench_build/perfbench, runs the workload in a fresh process, checks its
audits and metric set against BENCHMARK.json, and prints as the last line of
stdout one JSON object with the keys correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a Chrome trace and a per-layer self-time summary under
.bench_build/traces. Exits non-zero when the build fails, an audit fails or
the result is malformed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
WORKLOADS = ("mlp_b8_replay", "pointnet_b8_amp", "hfht_pointnet_hb")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output -> stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Problems with the result's metric set; empty when it is complete."""
    problems = []
    got = result["metrics"]
    expected = expected_metrics(trace)
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append("missing metric " + name)
        elif m["unit"] != unit:
            problems.append("%s has unit %s, expected %s"
                            % (name, m["unit"], unit))
        elif not math.isfinite(m["value"]):
            problems.append("%s is not finite" % name)
        elif not trace and m["value"] <= 0:
            problems.append("%s is not positive" % name)
    for name in got:
        if name not in expected:
            problems.append("unexpected metric " + name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "BENCHMARK.json",
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            log("%s not found: run from the root of a full checkout" % need)
            return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 3

    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result from %s (exit %d)" % (args.workload, proc.returncode))
        return 5

    problems = check(result, args.trace) + result["failures"]
    correct = result["correct"] and not problems and proc.returncode == 0
    for p in problems:
        log("FAILED: " + p)
    provenance = dict(result["provenance"], source=source_id())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "provenance": provenance, "info": result["info"]}))
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": max(result["failed"], 0 if correct else 1),
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
