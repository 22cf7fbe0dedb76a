"""orthocat benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload witness-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, nothing is built or installed. Load is closed-loop: one caller in
one thread issues the next op when the previous one returns, for
``--seconds`` seconds, and checks every op's output (a failed check is
counted, never fatal). Ops are timed without their checks, in process CPU
time scaled to a reference host speed (see ``clock.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced ops (even op numbers traced), prints the per-layer metrics from
the traced ops of every complete pass pair (so counts repeat exactly for a
seed) and writes the spans to ``perfbench/out/``. Workloads, metrics and
their predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
# latency_tail_ms is the highest of TAIL_PER_MILLE with at least MIN_BEYOND
# samples beyond it, else (under 100 samples) the lowest of them. A fixed
# percentile keeps the same op type in the tail however many ops a slow or
# fast host fits in a run: on file-cli's three-command cycle, a rank counted
# down from the slowest op fell among the fast ops in runs with few ops.
TAIL_PER_MILLE = (999, 990, 900)  # p99.9, p99, p90; integers keep ranks exact
MIN_BEYOND = 10

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import orthocat; print(time.process_time() - t)"
)


def _import_orthocat() -> None:
    if not (SRC / "orthocat" / "__init__.py").is_file():
        sys.exit(f"error: no orthocat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orthocat

    if Path(orthocat.__file__).resolve().parent != SRC / "orthocat":
        sys.exit(f"error: imported orthocat from {orthocat.__file__}, not {SRC}")


def _import_seconds() -> float:
    """CPU time to import orthocat in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """(value, label) by the TAIL_PER_MILLE rule; the label names the
    percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for per_mille in TAIL_PER_MILLE:
        rank = -(-per_mille * n // 1000)  # nearest rank: ceil(per_mille * n / 1000)
        if n - rank >= MIN_BEYOND or per_mille == TAIL_PER_MILLE[-1]:
            return ordered[rank - 1], f"p{per_mille / 10:g} of {n} ops, {n - rank} beyond"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_orthocat()
    from clock import SpeedClock
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup, run, check = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    clock = SpeedClock(tracer.note_pause if tracer else None)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    setups = []  # (import CPU s, import interval, set-up interval, set-up CPU s)
    # Each op's wall interval and CPU time, in flat arrays: their few bytes
    # per op keep the harness's own memory out of peak_rss_mb.
    starts, ends, cpus = array("d"), array("d"), array("d")
    try:
        clock.start()
        if tracer:
            tracer.install()
        for k in range(SETUP_REPEATS):
            i0 = time.perf_counter()
            import_s = _import_seconds()
            i1 = time.perf_counter()
            if tracer:
                tracer.begin_op(f"setup{k}")
            inputs = None  # one corpus alive at a time: peak RSS shows the ops
            t0, c0 = time.perf_counter(), time.process_time()
            inputs = setup(args.seed, workdir)
            setups.append((import_s, (i0, i1), (t0, time.perf_counter()), time.process_time() - c0))
            if tracer:
                tracer.end_op()

        # A pass pair: every input once traced and once untraced (odd-length
        # passes), or the same traced half in each pass (even lengths).
        cycle = math.lcm(len(inputs), 2)
        attempted = failed = 0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or (tracer and attempted < cycle):
            item = inputs[attempted % len(inputs)]
            op_traced = tracer is not None and attempted % 2 == 0
            if op_traced:
                tracer.begin_op(str(attempted))
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                try:
                    result = run(item)
                finally:
                    cpus.append(time.process_time() - c0)
                    starts.append(t0)
                    ends.append(time.perf_counter())
                    if op_traced:
                        tracer.end_op()
                ok = bool(check(item, result))
            except Exception:
                if not failed:  # one traceback is enough to start debugging
                    traceback.print_exc()
                ok = False
            failed += not ok
            attempted += 1
    finally:
        if tracer:
            tracer.uninstall()
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    spans = list(zip(starts, ends))
    setup_s = [imp * clock.factor(*at) + clock.normalized(*gen, cpu) for imp, at, gen, cpu in setups]
    latencies = [clock.normalized(*span, cpu) for span, cpu in zip(spans, cpus)]
    if tracer:
        counted = attempted // cycle * cycle
        ops = {str(i): clock.factor(*spans[i]) for i in range(0, counted, 2)}
        setup_factors = {f"setup{k}": clock.factor(*gen) for k, (_, _, gen, _) in enumerate(setups)}
        metrics = layer_metrics(tracer, ops, setup_factors)
        overhead = statistics.median(latencies[0::2]) - statistics.median(latencies[1::2])
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        # The raw side of the normalization, over the untraced ops: a change
        # that moves the reference kernel's speed shows here as a host_speed
        # shift with wall time unchanged.
        bare = [end - begin for begin, end in spans[1::2]]
        metrics["runtime.wall_ops_per_s"] = (len(bare) / math.fsum(bare), "1/s")
        metrics["runtime.wall_latency_p50_ms"] = (statistics.median(bare) * 1e3, "ms")
        metrics["runtime.host_speed"] = (clock.factor(spans[0][0], spans[-1][1]), "ratio")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print(f"per-layer metrics over {len(ops)} traced ops; {attempted - len(ops)} other ops")
    else:
        tail, label = tail_latency(latencies)
        metrics = {
            "ops_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
        wall = [end - begin for begin, end in spans]
        print(
            f"{args.workload}: {attempted} ops, latency_tail_ms is {label}; "
            f"wall-clock p50 {statistics.median(wall) * 1e3:.6g} ms, "
            f"mean host speed {clock.factor(spans[0][0], spans[-1][1]):.3f} of reference"
        )

    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
