"""Self-test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that the untraced run emits exactly the
end-to-end metrics of ``BENCHMARK.json`` and the traced run exactly its
per-layer metrics (including ``unattributed_s``), each with a valid name,
unit and finite value; and that an injected wrong oracle result makes the
run report failed operations (``error_rate`` above 0) and
``correct: false``.  Exits non-zero on the first violation.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0.5", "--size", "tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{command} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result


def check_metrics(workload: str, result: dict, declared: list) -> None:
    expected = {entry["name"]: entry["unit"] for entry in declared}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(
            f"{workload}: metrics {sorted(metrics)} != declared {sorted(expected)}"
        )
    for name, entry in metrics.items():
        if not NAME.match(name) or not UNIT.match(entry["unit"]):
            raise AssertionError(f"{workload}: bad name or unit {name!r} {entry}")
        if entry["unit"] != expected[name] or not math.isfinite(entry["value"]):
            raise AssertionError(f"{workload}: {name} = {entry}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        plain = run(workload, "--trace", "0")
        check_metrics(workload, plain, spec["end_to_end"])
        if not plain["correct"] or plain["failed"] or plain["attempted"] < 1:
            raise AssertionError(f"{workload}: clean run reported {plain}")
        for entry in spec["end_to_end"]:
            if plain["metrics"][entry["name"]]["value"] == 0:
                raise AssertionError(f"{workload}: {entry['name']} reads 0")

        traced = run(workload, "--trace", "1")
        check_metrics(workload, traced, spec["per_layer"])
        if traced["metrics"]["unattributed_s"]["value"] <= 0:
            raise AssertionError(f"{workload}: no unattributed_s in the traced run")

        faulty = run(workload, "--trace", "0", "--inject-fault")
        if faulty["correct"] or faulty["failed"] / faulty["attempted"] <= 0:
            raise AssertionError(f"{workload}: injected fault went unnoticed: {faulty}")
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
