"""Record a baseline: several seeded runs per workload, plus one traced run.

    python3 perfbench/baseline.py

Run it in a git clone; the numbers are recorded for ``git rev-parse HEAD``
and written to ``perfbench/baseline.json``. For each workload and end-to-end
metric it records the median, the quartiles and the spread (quartile
distance over the median) of RUNS untraced runs on seeds 1..RUNS, and flags
any spread wider than a third of the metric's bound. ``setup_s`` is exempt
from that flag, as from the acceptance rule the bounds come from: only its
median is compared between commits. The per-layer metrics come from one
traced run on the default seed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

from run import DEFAULT_SEED
from selfcheck import ROOT, run_once, spec

RUNS = 10
OUT = ROOT / "perfbench" / "baseline.json"

# Never used while the benchmark was tuned: confirm a claimed gain on it.
HELD_OUT_SEED = 4242


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": list(range(1, RUNS + 1)),
        "end_to_end": {},
        "per_layer": {},
    }
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in record["seeds"]:
            result = run_once(workload, seed, bench["run_seconds"], 0)
            assert result["failed"] == 0, (workload, seed, result)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{workload:16} {name:16} median {median:12.6g}  spread {spread:.4f}"
                  f"{'' if ok else '  WIDER THAN A THIRD OF ITS BOUND'}", flush=True)
        record["end_to_end"][workload] = rows
        traced = run_once(workload, DEFAULT_SEED, bench["run_seconds"], 1)
        record["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
