#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the benchmark program
plus the simulator library) under .bench_build/. Each run then executes the
workload in a child process of its own, so its peak resident memory and
any crash are charged to that workload. The program's report lines are
passed through; the last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

WORKLOADS = ("sweep_full", "sweep_sampled")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
CHILD_TIMEOUT_S = 170
# glibc raises its mmap threshold after large frees, so whether a big
# buffer is later served from the heap (and stays resident) depends on
# allocation order: peak RSS then flips between two values (100 vs 155 MB
# for serial runs of mcf, parser, lbm and milc) from seed to seed. Pinning glibc's documented default
# threshold turns that heuristic off, so peak_rss_mb follows what the
# program holds.
CHILD_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (cheap once cached) and bring the program up to date."""
    log_path = os.path.join(".bench_build", "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run_child(cmd):
    """Run @cmd to completion; return (stdout, exit code, peak RSS MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=CHILD_ENV)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # The self-test's tiny run lengths; the benchmark always runs full.
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    if not (os.path.isfile("BENCHMARK.json")
            and os.path.isfile(os.path.join("src", "pipeline", "core.hh"))
            and os.path.isfile("CMakeLists.txt")):
        fail("run from the root of a repository checkout (BENCHMARK.json, "
             "CMakeLists.txt and src/ are needed)", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    program = build()
    out_dir = os.path.join(".bench_build", "runs")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--root", ".", "--out", out_dir]
    out, code, peak_rss_mb = run_child(cmd)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, code))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % args.workload)

    metrics = raw["metrics"]
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": {}}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            print("perfbench: FAILED metric %s missing or malformed: %r"
                  % (m["name"], got))
            result["correct"] = False
            continue
        result["metrics"][m["name"]] = got
    context = dict(raw["context"])
    context["failed_frac"] = raw["failed"] / raw["attempted"]
    print("perfbench: context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
