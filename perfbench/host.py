"""Host facts and the reference kernel that normalises wall time.

The host's speed drifts, within a process and between processes: on the
2-core host this benchmark was written on, the kernel below took anywhere
from 11 ms to 50 ms within one run, in spells of a few seconds.  The runner
divides every timed call by the kernel times measured just before and just
after it, which cancels those spells (README.md has the figures).
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

_KERNEL_KEYS = 4099
_KERNEL_LOOPS = 20_000
_SORT_INPUT = np.random.default_rng(0x5EED).random(1_000_000)


def reference_kernel() -> int:
    """Fixed pure-Python dict work plus a NumPy sort (~16 ms); returns a checksum.

    The two parts take about equal time: in probes the dict loop alone
    swung more than the workloads did between fast and slow spells of the
    host, the sort alone less.
    """
    table: dict[int, int] = {}
    for i in range(_KERNEL_LOOPS):
        key = (i * 2654435761) % _KERNEL_KEYS
        table[key] = table.get(key, 0) + i
    ordered = np.sort(_SORT_INPUT)
    return len(table) + int(ordered[0] < ordered[-1])


#: What ``reference_kernel`` typically took on the 2-core host this
#: benchmark was written on (Python 3.11.7, NumPy 2.4.6).  It only sets the
#: scale of ``setup_s``: set-up time normalised to the host's speed,
#: expressed in seconds of that host.
NOMINAL_REFERENCE_S = 0.016


def time_reference(repeats: int = 3) -> list[float]:
    """Wall time of ``repeats`` back-to-back reference-kernel calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - started)
    return times


def cpu_steal_ticks() -> int | None:
    """Host-wide CPU steal ticks from ``/proc/stat`` (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def peak_rss_mib() -> float:
    """Peak resident memory of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_facts(root: Path, reference_times: list[float], steal_start, steal_end) -> dict:
    """What a result file records about the host and the build."""
    from repro.batch.streaming import batch_block_size
    from repro.batch.substrate import default_substrate_name

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "reference_s": reference_times,
        "reference_median_s": statistics.median(reference_times),
        "cpu_steal_ticks": (
            None if steal_start is None or steal_end is None else steal_end - steal_start
        ),
        "batch_block": batch_block_size(),
        "substrate": default_substrate_name(),
    }
