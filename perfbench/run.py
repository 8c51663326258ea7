"""The reproduction's benchmark: one workload, one process, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads are ``paper``, ``campaign`` and ``replay`` (see README.md).  A run

1. clears every ``REPRO_*`` variable the caller set, pins BLAS/OpenMP to one
   thread, and points the profile cache and the result warehouse at fresh
   directories under ``.perfbench/`` in the checkout;
2. sets up several times (session, server, characterizing every profile the
   rounds read into a fresh cache) and reports the median as ``setup_s``,
   plus the interpreter's start-up and imports;
3. repeats whole rounds of the workload's operations while another round
   still fits in ``--seconds``, timing a fixed reference kernel before the
   first call and after every call (its time is not part of any round);
4. checks the outputs apart from the timed calls, and prints one JSON
   object as the last line of standard output.

``--trace 1`` gives the per-layer metrics instead: the first half of the
time runs untraced rounds, the second half runs rounds with every layer
wrapped (see ``layers.py``); the difference of their median walls is the
tracing overhead.  Spans and run facts go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3
#: Reference-kernel calls in each gap between two timed calls.
GAP_SAMPLES = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _process_age_s() -> float:
    """Seconds since the interpreter started (``/proc``; 0 if unreadable)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError):
        return 0.0
    # Field 22 (starttime) counts clock ticks since boot; the command name
    # in field 2 may hold spaces, so split after its closing parenthesis.
    fields = stat.rsplit(")", 1)[1].split()
    return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))


_PROCESS_START = _STARTED - _process_age_s()


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "campaign", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check only")
    return parser.parse_args(argv)


def _hermetic_environment() -> None:
    """Drop every setting of the caller that could change a workload."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for key in THREAD_VARIABLES:
        os.environ[key] = "1"


class _Run:
    """Rounds, reference-kernel times and outcome tallies of one run."""

    def __init__(self, workload, scratch: Path) -> None:
        from host import time_reference

        self.workload = workload
        self.scratch = scratch
        self.ops = workload.operations()
        self.first: dict | None = None
        self.first_rows = 0
        #: Per round: wall seconds, and the same calls in reference units.
        self.walls: list[float] = []
        self.ref_units: list[float] = []
        self.op_walls: dict[str, list[float]] = {}
        self.reference: list[float] = time_reference(GAP_SAMPLES)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _timed(self, step, results: dict) -> tuple:
        """Call one step; returns (result, wall seconds, reference units)."""
        before = self.reference[-GAP_SAMPLES:]
        started = time.perf_counter()
        try:
            return (step(results), *self._account(started, before))
        except Exception:
            self._account(started, before)
            raise

    def _account(self, started: float, before: list[float]) -> tuple[float, float]:
        from host import time_reference

        wall = time.perf_counter() - started
        after = time_reference(GAP_SAMPLES)
        self.reference.extend(after)
        # Each call is divided by the mean reference time measured just
        # before and just after it, so a spell of slow host cancels locally.
        return wall, wall / statistics.fmean(before + after)

    def round(self) -> float:
        """Run one round of every operation; returns its wall time."""
        from host import peak_rss_mib
        from workloads import same

        self.workload.begin_round(tempfile.mkdtemp(prefix="round-", dir=self.scratch))
        results, errors = {}, {}
        wall = units = 0.0
        for op in self.ops:
            pieces, op_wall = [], 0.0
            try:
                for step in op.steps:
                    piece, step_wall, step_units = self._timed(step, results)
                    pieces.append(piece)
                    op_wall += step_wall
                    units += step_units
                results[op.label] = op.combine(pieces)
            except Exception:  # an operation's failure is counted, not fatal
                errors[op.label] = traceback.format_exc()
            wall += op_wall
            self.op_walls.setdefault(op.label, []).append(op_wall)

        self.attempted += len(self.ops)
        self.failed += len(errors)
        for label, text in errors.items():
            self.problems.append(f"{label} raised:\n{text}")
        if self.first is None:
            self.first = results
            # Later rounds hold what the program keeps between calls too
            # (the server keeps every job), so the peak grows with the number
            # of rounds, which the host's speed decides; the gated peak is
            # the set-up plus one round.
            self.first_peak_rss_mib = peak_rss_mib()
            self.first_rows = sum(op.rows(results[op.label]) for op in self.ops
                                  if op.label in results)
        else:
            # A result never depends on what ran before it.
            for label, result in results.items():
                if not same(result, self.first.get(label)):
                    self.failed += 1
                    self.problems.append(f"{label}: round {len(self.walls) + 1} differs")
        self.walls.append(wall)
        self.ref_units.append(units)
        return wall

    def rounds(self, budget_s: float) -> list[float]:
        """Rounds while another fits in ``budget_s`` (at least one)."""
        started = time.perf_counter()
        walls = []
        while True:
            walls.append(self.round())
            if time.perf_counter() - started + walls[-1] > budget_s:
                return walls

    def known_failures(self) -> int:
        """Operations whose every round returned a known-wrong result."""
        labels = [label for label, result in self.first.items()
                  if self.workload.failed(label, result)]
        return len(labels) * len(self.walls)

    def check(self) -> tuple[bool, list[str]]:
        """Run the workload's checks on the first round's results."""
        from workloads import CheckFailed

        try:
            checks = self.workload.check(self.first)
        except CheckFailed as failure:
            self.problems.append(f"check failed: {failure}")
            return False, []
        except Exception:
            self.problems.append("check raised:\n" + traceback.format_exc())
            return False, []
        return not self.problems, checks


def _measure(args: argparse.Namespace, scratch: Path) -> tuple[dict, dict, object]:
    """Set up, run the rounds and check; returns (result, record, tracer)."""
    import host
    import layers
    from repro.runtime import profile_cache
    from tracing import Tracer
    from workloads import WORKLOADS, characterize_inputs

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    os.environ["REPRO_NO_WAREHOUSE"] = workload.no_warehouse
    imports_s = time.perf_counter() - _PROCESS_START
    steal_start = host.cpu_steal_ticks()
    tracer = Tracer() if args.trace else None
    # Set-up is normalised like the rounds: the imports by the kernel times
    # right after them, each set-up by the kernel times around it.
    setup_reference = host.time_reference(GAP_SAMPLES)
    imports_units = imports_s / statistics.fmean(setup_reference)

    try:
        setups, setup_units = [], []
        for repeat in range(1 if tracer else SETUP_REPEATS):
            if repeat:
                workload.stop()
            os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-", dir=scratch)
            os.environ["REPRO_WAREHOUSE_DIR"] = tempfile.mkdtemp(prefix="wh-", dir=scratch)
            profile_cache.default_cache().clear()
            if tracer:
                layers.install(tracer)
            started = time.perf_counter()
            try:
                workload.start()
                characterize_inputs(workload)
            finally:
                setups.append(time.perf_counter() - started)
                if tracer:
                    tracer.uninstall()
            before = setup_reference[-GAP_SAMPLES:]
            setup_reference.extend(host.time_reference(GAP_SAMPLES))
            local = statistics.fmean(before + setup_reference[-GAP_SAMPLES:])
            setup_units.append(setups[-1] / local)

        run = _Run(workload, scratch)
        if tracer:
            untraced = run.rounds(args.seconds / 2)
            tracer.phase = "round"
            layers.install(tracer)
            try:
                traced = run.rounds(args.seconds / 2)
            finally:
                tracer.uninstall()
        else:
            run.rounds(args.seconds)
        correct, checks = run.check()
        run.failed += run.known_failures()
    finally:
        workload.stop()

    wall_s = statistics.median(run.walls)
    # Raw wall-clock figures spread 20-30 % between runs on a shared host,
    # beyond any usable bound; they are recorded, not gated (README.md).
    raw = {
        "setup_s": imports_s + statistics.median(setups),
        "wall_s": wall_s,
        "rows_per_s": run.first_rows / wall_s,
        "peak_rss_mib": host.peak_rss_mib(),
    }
    if tracer:
        untraced_units, traced_units = run.ref_units[:len(untraced)], run.ref_units[len(untraced):]
        overhead = {
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "trace.overhead_ref": statistics.median(traced_units)
            - statistics.median(untraced_units),
        }
        metrics = layers.per_layer_metrics(tracer, len(traced), overhead)
    else:
        setup_s = host.NOMINAL_REFERENCE_S * (imports_units + statistics.median(setup_units))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": statistics.median(run.ref_units), "unit": "ref"},
            "peak_rss_mib": {"value": run.first_peak_rss_mib, "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "raw": raw,
        "imports_s": imports_s,
        "setup_repeats_s": setups,
        "setup_reference_s": setup_reference,
        "round_walls_s": run.walls,
        "round_ref_units": run.ref_units,
        "operation_walls_s": run.op_walls,
        "rows_per_round": run.first_rows,
        "operations_per_round": [op.label for op in run.ops],
        "checks": checks,
        "problems": run.problems,
        "facts": host.run_facts(ROOT, run.reference, steal_start, host.cpu_steal_ticks()),
        **result,
    }
    return result, record, tracer


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _hermetic_environment()
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import numpy  # noqa: F401 - imported after the thread pinning above
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {source}: {error}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the program in {source}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, record, tracer = _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.jsonl")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
