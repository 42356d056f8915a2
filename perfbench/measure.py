"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

#: Iterations of :func:`probe`'s loop.
PROBE_LOOPS = 100_000

#: The probe's median wall seconds on the reference host, the 2-vCPU
#: host the benchmark was tuned on.  A ``ref_s`` is a wall second scaled
#: to that host's speed.
PROBE_REFERENCE_S = 0.0083

#: Candidate tail percentiles, highest first.  The gaps are wide so a
#: run's sample count stays inside one bracket from run to run.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def probe() -> float:
    """Wall seconds of a fixed loop of plain Python arithmetic that uses
    nothing of the program and allocates no container: a reading of the
    host's current speed.  On a shared host it slows down and speeds up
    with the program's own ops (correlation of worker means 0.6-0.98)."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.perf_counter() - started


def reference_seconds(walls: Sequence[float], probes: Sequence[float]) -> float:
    """``walls``, measured while the probe read ``probes``, in seconds of
    the reference host (``ref_s``)."""
    return sum(walls) * PROBE_REFERENCE_S / median(probes) if walls else 0.0


def rank(percentile: float, count: int) -> int:
    """1-based nearest rank of ``percentile`` among ``count`` samples,
    in exact arithmetic (percentiles are given to a tenth)."""
    tenths = round(percentile * 10)
    return max(1, -(-tenths * count // 1000))


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of already sorted samples."""
    return ordered[rank(percentile, len(ordered)) - 1]


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest candidate percentile with at
    least :data:`TAIL_BEYOND` samples strictly beyond its rank.  With
    fewer than 20 samples no candidate qualifies and the median stands
    in."""
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        position = rank(percentile, count)
        if count - position >= TAIL_BEYOND:
            return percentile, ordered[position - 1]
    return 50.0, nearest_rank(ordered, 50.0)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def relative_spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else float("inf")


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB.

    Reads ``VmHWM`` from ``/proc/self/status``: it belongs to the
    process's own address space, which ``exec`` replaces, so a child
    never inherits its parent's peak.  ``ru_maxrss`` does inherit it on
    Linux and is only the fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # bytes on macOS, KiB elsewhere
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0
