"""Smoke test of the benchmark itself: short runs of every workload, both modes.

Run from the repository root::

    python3 perfbench/smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its unit
for every workload, untraced and traced, that the untraced info line
carries ``op_s.p50`` and ``bits_per_s``, that no op fails its gates, and
that the benchmark exits non-zero without a result line when the package
source is missing.  Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# End-to-end metrics the info line carries but BENCHMARK.json does not bound.
UNBOUNDED = {"op_s.p50": "s", "bits_per_s": "1/s"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace))
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} != {expected[trace]}")
            if trace == 0:
                info = json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("perfbench-info "))
                unbounded = {k: v["unit"] for k, v in info["unbounded"].items()}
                if unbounded != UNBOUNDED:
                    problems.append(f"{where}: info metrics {unbounded} != {UNBOUNDED}")
            print(f"{where}: {result['attempted']} ops, {len(got)} metrics")

    # Without the package source the benchmark must refuse to report.
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "sweep-threshold", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"bare directory: exit {proc.returncode}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
