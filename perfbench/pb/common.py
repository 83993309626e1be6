"""Helpers shared by every workload: paths, percentiles, memory, environment."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: ``perfbench/`` and the checkout that holds it (the program's sources live
#: in ``<checkout>/src``; everything the benchmark writes goes under
#: ``<checkout>/.perfbench``).
PERFBENCH_DIR = Path(__file__).resolve().parent.parent
CHECKOUT = PERFBENCH_DIR.parent
SRC = CHECKOUT / "src"
STATE_DIR = CHECKOUT / ".perfbench"

#: The contended program set every campaign samples: 4 transactions, 4 items
#: (2 hot), 2 operations each -- about 1.2e10 interleavings.
CONTENTION_PARAMS = dict(transactions=4, items=4, hot_items=2,
                         operations_per_transaction=2)


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[pos]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process (or of its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, or ``None`` when it cannot be read."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def filesystem_of(path: Path) -> str:
    """The filesystem type holding ``path`` (longest matching mount point)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except (OSError, ValueError, IndexError):
        return "unknown"
    return kind


_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def steal_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs so far.

    On a virtual machine the host runs other guests on the same cores; the
    time they take shows up as ``steal`` in ``/proc/stat`` and as wall-clock
    time in which the program did not run.  0 where it cannot be read.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / _TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment(store_dir: Path) -> Dict[str, object]:
    """What a run's figures depend on besides the code: interpreter, numpy,
    cores and the filesystem the stores live on."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "cores": usable_cores(),
        "store_filesystem": filesystem_of(store_dir),
    }


def level_rows(stats_by_level: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Per-level batch-kernel rows against ejected rows, from program stats.

    ``rows`` counts every schedule the batch kernel took; a run that fell back
    to the stepwise trie walk (numpy missing) shows ``rows == 0`` with
    schedules executed, and is never comparable with a kernel run.
    """
    out: Dict[str, Dict[str, int]] = {}
    for level, stats in stats_by_level.items():
        fast = int(stats.get("batch_rows_fast", 0))
        ejected = int(stats.get("batch_rows_ejected", 0))
        out[level] = {"rows": fast + ejected, "ejected_rows": ejected,
                      "schedules": int(stats.get("schedules", 0))}
    return out


def merge_counts(target: Dict[str, float], extra: Dict[str, float]) -> None:
    for key, value in extra.items():
        target[key] = target.get(key, 0) + value


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile spread as a share of the median."""
    if len(values) < 2:
        only = values[0] if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}
