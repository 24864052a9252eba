#!/usr/bin/env python3
"""Smoke test of ezflow_ladder (registered with ctest as ladder_selftest).

    python3 selftest.py LADDER_BINARY BENCHMARK_JSON WORK_DIR

Runs every workload once at --sim-scale=0.02 with tracing, then checks:
every metric BENCHMARK.json names is printed for every workload with a
finite value and every check passed; `compare` of a report set against
itself finds nothing worse than unchanged; and `compare` against a copy
with wall_s inflated by twice its bound reports wall_s as worse.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_merge", "grid10k", "gateway_k8", "clusters_cut"]


def fail(message):
    print(f"ladder_selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(command):
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    return done


def main():
    ladder, bench_json, work = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    bench = json.loads(bench_json.read_text())
    shutil.rmtree(work, ignore_errors=True)
    base, inflated = work / "base", work / "inflated"

    done = run([ladder, "--all", "--reps=1", "--sim-scale=0.02", "--trace", f"--out={base}"])
    if done.returncode != 0:
        fail(f"--all exited with {done.returncode}")
    printed = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and not line.startswith("#"):
            printed[(fields[0], fields[1])] = fields[2]
    for workload in WORKLOADS:
        for metric in bench["end_to_end"] + bench["per_layer"] + [{"name": "fail_ratio"}]:
            value = printed.get((workload, metric["name"]))
            if value is None or not math.isfinite(float(value)):
                fail(f"{workload} {metric['name']} not printed with a finite value")
        if float(printed[(workload, "fail_ratio")]) != 0.0:
            fail(f"{workload} failed a check")

    compare = [ladder, "compare", f"--bench-json={bench_json}"]
    done = run(compare + [str(base), str(base)])
    flagged = [line for line in done.stdout.splitlines()
               if line.rstrip().endswith((" worse", " unresolved")) or "behaviour changed" in line]
    if done.returncode != 0 or flagged:
        fail("compare of a report set against itself is not all unchanged")

    wall_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    shutil.copytree(base, inflated)
    for workload in WORKLOADS:
        path = inflated / f"{workload}.json"
        report = json.loads(path.read_text())
        wall = report["end_to_end"]["wall_s"]
        wall["values"] = [value * (1 + 2 * wall_bound) for value in wall["values"]]
        path.write_text(json.dumps(report))
    done = run(compare + [str(base), str(inflated)])
    worse = {line.split()[0] for line in done.stdout.splitlines()
             if " wall_s " in line and line.rstrip().endswith(" worse")}
    if done.returncode != 1 or worse != set(WORKLOADS):
        fail("compare against a slower copy does not report wall_s worse on every workload")
    print("ladder_selftest: ok")


if __name__ == "__main__":
    main()
