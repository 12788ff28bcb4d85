"""Order statistics and host-speed rescaling used by the benchmark.

Standard library only, so that the benchmark's own helpers can be tested and
imported before numpy is loaded.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], pct: int) -> tuple[float, int]:
    """The ``pct``-th percentile of ``values`` and the number of samples above it.

    The percentile interpolates linearly between order statistics, as
    ``statistics.quantiles(values, n=100, method="inclusive")`` does. It is
    fixed per workload rather than derived from the sample count, so that a
    faster or slower program is compared at the same percentile.
    """
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        value = float(values[0])
    else:
        value = float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])
    return value, sum(x > value for x in values)


def at_reference(ops: Sequence[tuple[float, float]], probes: Sequence[tuple[float, float]],
                 nominal: float) -> list[float]:
    """Each operation's latency rescaled to the speed at which the probe takes ``nominal``.

    ``ops`` are (start, latency) and ``probes`` are (time, probe duration),
    both in time order, with a probe before the first operation and one after
    the last. An operation's host speed is the mean of the last probe before
    it and the first probe after it.
    """
    times = [t for t, _ in probes]
    scaled = []
    for start, latency in ops:
        after = bisect.bisect_left(times, start + latency)
        before = bisect.bisect_right(times, start) - 1
        if before < 0 or after == len(times):
            raise ValueError("every operation needs a probe before and after it")
        scaled.append(latency * nominal / ((probes[before][1] + probes[after][1]) / 2))
    return scaled
