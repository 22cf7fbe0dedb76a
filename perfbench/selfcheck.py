"""Short self-check of the benchmark: every workload, untraced and traced.

    python3 perfbench/selfcheck.py

Runs each workload for one second in each mode and asserts that every
metric named in BENCHMARK.json is printed with its declared unit, that no op
failed, and that the witness pair's counts are the paper's numbers. Takes
about a minute; exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WITNESS_COUNTS = {
    "catenation.build_dfa.states_built": 188_416,
    "core.minimize.states_out": 94_208,
    "catenation.build_dfa.useful_ratio": 0.5,
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a fresh process; its final JSON line."""
    command = spec()["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = spec()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run_once(workload, 1, 1, trace)
            printed = result["metrics"]
            expected = {m["name"]: m["unit"] for m in declared}
            assert set(printed) == set(expected), (workload, trace, set(printed) ^ set(expected))
            for name, unit in expected.items():
                assert printed[name]["unit"] == unit, (workload, name, printed[name])
                assert isinstance(printed[name]["value"], (int, float)), (workload, name)
            error_rate = result["failed"] / result["attempted"]
            assert result["correct"] and error_rate == 0, (workload, trace, result)
            if trace and workload == "witness-verify":
                for name, value in WITNESS_COUNTS.items():
                    assert printed[name]["value"] == value, (name, printed[name])
            print(f"PASS {workload} trace={trace}: {len(printed)} metrics, "
                  f"{result['attempted']} ops, error_rate 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
