#!/usr/bin/env python3
"""Build ezflow_ladder from source and run one workload of it.

    python3 bench/ladder/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the ladder (Release) under .bench_build/ladder; later calls only rebuild
what changed. The ladder repeats the workload for S seconds of host time
(at least three repetitions), checks every experiment's outputs, and
writes its report under .bench_build/runs/. The last line printed is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are the end-to-end medians (--trace 0) or the traced run's per-layer
metrics (--trace 1), named as in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LADDER = ROOT / "bench" / "ladder"
BUILD = ROOT / ".bench_build" / "ladder"
TIMEOUT_S = 170.0


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_quiet(command):
    """Run a build step; show its output only when it fails."""
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"run.py: {' '.join(command)} failed with {done.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: no src/CMakeLists.txt here; run from the root of a source tree")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(LADDER), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                   *generator])
    run_quiet(["cmake", "--build", str(BUILD), "--target", "ezflow_ladder", "-j",
               str(os.cpu_count() or 1)])
    return BUILD / "ezflow_ladder"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    started = time.monotonic()
    binary = build()
    out = ROOT / ".bench_build" / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        command.append("--trace")
    # The first call may spend its budget building; the timeout covers only
    # the measured part.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as ladder:
        try:
            output, _ = ladder.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            ladder.kill()
            ladder.communicate()
            raise SystemExit(f"run.py: ezflow_ladder exceeded {TIMEOUT_S} s")
    sys.stdout.write(output)
    if ladder.returncode not in (0, 1):
        raise SystemExit(f"run.py: ezflow_ladder exited with {ladder.returncode}")

    report = json.loads((out / f"{args.workload}.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        wanted = bench["per_layer"]
        measured = {name: entry["value"] for name, entry in report["per_layer"].items()}
    else:
        wanted = bench["end_to_end"]
        measured = {name: entry["median"] for name, entry in report["end_to_end"].items()}
    metrics = {}
    complete = True
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None or not math.isfinite(value):
            log(f"metric {metric['name']} missing or not finite")
            complete = False
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = complete and ladder.returncode == 0 and report["failed"] == 0
    log(f"{args.workload} seed {args.seed}: {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
