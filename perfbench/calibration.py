"""Machine-speed calibration for shared hosts.

On the 2-vCPU Xeon VM (shared host) this was built on, the same job's CPU time
drifts by up to 1.7x within a second as other tenants load the physical
cores; steal time stays flat, so CPU time does not help.  A fixed
pure-Python loop that does not touch procure runs before every timed call
and after the last one, and each call's duration is scaled to what it would
read on a machine where the loop takes ``REFERENCE_S`` (about this host
when it runs fast).

procure's jobs slow down less than the loop does: fitting log(job time)
against log(loop time) over two minutes of alternating runs on that host
gave slopes of 0.68 to 0.84 for one job of each workload (correlation 0.88
to 0.95).  Scaling by the full ratio would over-correct a slow spell, so
the ratio is raised to ``SENSITIVITY``.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.0025
SENSITIVITY = 0.75
_VALUES = [float(i % 97) for i in range(3000)]


def _work() -> float:
    """Set, list and float work of the kind procure's oracles do."""
    covered: set[int] = set()
    total = 0.0
    for r in range(6):
        for i in range(0, 3000, 3):
            if i not in covered:
                total += sum(_VALUES[j] for j in range(i, i + 3))
            if i % 7 == r:
                covered.add(i)
    return total


def probe() -> float:
    """Seconds one calibration loop takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor(probe_s: float) -> float:
    """Multiplier that takes a time measured while the loop took ``probe_s``
    to the reference speed."""
    return (REFERENCE_S / probe_s) ** SENSITIVITY


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` as it would read at the reference speed."""
    return seconds * factor((probe_before + probe_after) / 2.0)


def scale_all(durations: list[float], probes: list[float]) -> list[float]:
    """Scale run i, which ran between probes i and i+1.

    The speed used is the median of the two probes on each side, so one
    probe that an interrupt happened to slow does not move a run.
    """
    return [d * factor(statistics.median(probes[max(i - 1, 0):i + 3])) for i, d in enumerate(durations)]


def phase_factor(probes: list[float]) -> float:
    """One factor for a whole phase, from its mean probe time."""
    return factor(math.fsum(probes) / len(probes))
