"""Tiny self-check of the benchmark itself; finishes in well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload at tiny input sizes, untraced and traced, each in its
own process, and asserts that

* the last line of standard output is the result object, ``correct`` is
  true and only the known-faulty operation of ``paper`` and ``replay``
  fails, once per round;
* every end-to-end metric of ``BENCHMARK.json`` is emitted untraced and
  every per-layer metric traced, each with its declared unit;
* every check of the workload ran;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files
  (no program to import), the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Operations per round that fail on every run, by workload.
KNOWN_FAILING = {"paper": 1, "campaign": 0, "replay": 1}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_workload(workload: str) -> None:
    from workloads import WORKLOADS

    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run(ROOT, workload, trace)
        assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] is True, f"{workload}: incorrect output:\n{done.stderr}"
        record = json.loads(
            (ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}.json").read_text()
        )
        per_round = len(record["operations_per_round"])
        rounds = len(record["round_walls_s"])
        assert result["attempted"] == per_round * rounds >= 1, result
        assert result["failed"] == KNOWN_FAILING[workload] * rounds, result
        expected = {metric["name"]: metric["unit"] for metric in declared}
        emitted = {name: value["unit"] for name, value in result["metrics"].items()}
        assert emitted == expected, f"{workload} trace={trace}: {emitted} != {expected}"
        for name, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), (name, value)
        assert tuple(record["checks"]) == WORKLOADS[workload].checks, record["checks"]
        print(f"ok {workload} trace={trace}: {rounds} round(s), checks {record['checks']}")


def _check_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "paper", 0)
        assert done.returncode != 0, "ran without the program"
        assert not done.stdout.strip(), f"printed a result without the program: {done.stdout}"
        print("ok bare checkout exits", done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.environ.pop("PYTHONPATH", None)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for workload in KNOWN_FAILING:
        _check_workload(workload)
    _check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
