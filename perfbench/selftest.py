#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed with every metric name matching
[A-Za-z0-9_.-]+, and that a tiny-length smoke run of every workload, untraced
and traced, prints a result line that parses and reports every named metric
with no failed operation. Exits 1 on the first problem.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, msg):
    if not ok:
        print("selftest: FAIL " + msg)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            check(UNIT.match(m["unit"]) is not None, "unit of " + m["name"])
            check(m["better"] in ("higher", "lower"), "better of " + m["name"])
    for name in names:
        check(NAME.match(name) is not None, "metric or workload name %r" % name)
    check(len(names) == len(set(names)), "names are used once")
    check(any(m["name"] == "setup_s" for m in spec["end_to_end"]), "setup_s")


def parse_result(stdout):
    """The last stdout line: exactly the four result keys."""
    result = json.loads(stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result keys %s" % sorted(result))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "attempted")
    check(isinstance(result["failed"], int), "failed")
    for name, m in result["metrics"].items():
        check(NAME.match(name) is not None, "reported name %r" % name)
        check(isinstance(m["value"], (int, float)), "value of " + name)
    return result


def smoke(spec, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    label = "%s --trace %d" % (workload, trace)
    check(proc.returncode == 0, label + " exit code %d:\n%s"
          % (proc.returncode, proc.stderr[-2000:]))
    result = parse_result(proc.stdout)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    check(sorted(result["metrics"]) == sorted(wanted),
          label + " metric set: missing %s"
          % sorted(set(wanted) - set(result["metrics"])))
    check(result["correct"] and result["failed"] == 0,
          label + " failed_frac %d/%d:\n%s"
          % (result["failed"], result["attempted"], proc.stdout[-3000:]))
    print("selftest: ok %s (%d operations)" % (label, result["attempted"]))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)
    print("selftest: ok BENCHMARK.json")
    for w in spec["workloads"]:
        for trace in (0, 1):
            smoke(spec, w["name"], trace)


if __name__ == "__main__":
    main()
