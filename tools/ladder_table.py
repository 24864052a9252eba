#!/usr/bin/env python3
"""Print the README Performance table from one ezflow_ladder report directory.

    python3 tools/ladder_table.py DIR

DIR holds <workload>.json for every workload in BENCHMARK.json, as written
by `ezflow_ladder --all --trace --out=DIR`. Each row gives a workload's
end-to-end medians and its traced run's sim.events and sim.ns_per_event;
the line under the table gives the build the reports came from.
"""

import json
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
LAYER = [m for m in BENCH["per_layer"] if m["name"] in ("sim.events", "sim.ns_per_event")]


def cell(value):
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def main():
    out = Path(sys.argv[1])
    reports = [json.loads((out / f"{w['name']}.json").read_text()) for w in BENCH["workloads"]]
    contexts = {json.dumps(r["context"], sort_keys=True) for r in reports}
    if len(contexts) != 1:
        sys.exit(f"ladder_table.py: {out} mixes reports from different runs")
    columns = BENCH["end_to_end"] + LAYER
    print("| workload | " + " | ".join(f"{m['name']} ({m['unit']})" for m in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for report in reports:
        values = [report["end_to_end"][m["name"]]["median"] for m in BENCH["end_to_end"]]
        values += [report["per_layer"][m["name"]]["value"] for m in LAYER]
        print(f"| `{report['workload']}` | " + " | ".join(cell(v) for v in values) + " |")
    context = reports[0]["context"]
    print(f"\nLabel `{context['label']}`, {context['build_type']} build, nproc "
          f"{context['nproc']}; seed {context['seed']}, {context['reps']} reps, "
          f"sim-scale {context['sim_scale']:g}. End-to-end columns are medians over the reps; "
          "sim.* columns come from one extra traced rep.")


if __name__ == "__main__":
    main()
