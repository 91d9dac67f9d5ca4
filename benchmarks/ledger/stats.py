"""Sample statistics and the bound comparator of the ledger benchmark.

Pure functions over lists of numbers; nothing here imports ``repro``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Tail levels a timing may be reported at, highest first.
TAIL_LEVELS = (90, 75)
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``level`` % at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, level: float) -> int:
    """How many of ``count`` samples rank above the ``level`` percentile."""
    return count - max(1, math.ceil(level / 100.0 * count))


def tail_level(count: int) -> int:
    """The highest tail level ``count`` samples support, else the median.

    The rule: a percentile above the median is only reported when at
    least :data:`MIN_SAMPLES_BEYOND` samples lie beyond it, so p90 needs
    100 samples, p75 needs 40, and fewer than 40 samples support no
    tail at all (the "tail" is then the median itself).
    """
    for level in TAIL_LEVELS:
        if samples_beyond(count, level) >= MIN_SAMPLES_BEYOND:
            return level
    return 50


def tail(values: Sequence[float]) -> "tuple[int, float]":
    """``(level, value)`` of the highest tail the samples support."""
    level = tail_level(len(values))
    if level == 50:
        return level, statistics.median(values)
    return level, percentile(values, level)


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` of a set of runs, as the driver takes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, quartiles and extremes of one run's samples.

    Within a run the quartiles interpolate *inside* the samples (two
    samples would otherwise give a lower quartile below both).
    """
    if len(values) < 2:
        p10 = q1 = q3 = float(values[0])
    else:
        p10 = statistics.quantiles(values, n=10, method="inclusive")[0]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "n": len(values),
        "min": min(values),
        "p10": p10,
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "max": max(values),
    }


def undisturbed(values: Sequence[float]) -> float:
    """The fastest tenth (10th percentile) of one run's samples of a duration.

    On a shared machine interference only ever adds time, in bursts of
    seconds and in episodes of minutes, so the bulk of a run's samples
    says more about the neighbours than about the code.  Measured over
    ten runs in a noisy half hour, the run-to-run spread of a run's
    minimum was 3-8 %, of its lower quartile 9-23 % and of its median
    13-27 %.  The 10th percentile stays with the minimum (it *is* nearly
    the minimum below ten samples) but a single odd fast sample, such
    as a served request that happened to be batched alone, does not set
    it.  Minimum, quartiles, median and maximum are printed and stored
    beside it.
    """
    return summarize(values)["p10"]


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None if undefined)."""
    if len(values) < 2:
        return None
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return None
    return (q3 - q1) / abs(median)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse (<0: better)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def verdict(
    first: Sequence[float],
    second: Sequence[float],
    bound: float,
    better: str,
) -> Dict[str, object]:
    """Compare two sets of runs of one (workload, metric) pair.

    ``regressed``: the second median is worse than the first by more
    than ``bound``.  ``unresolved``: the run-to-run spread of either
    set is wider than ``bound``, so a difference of that size cannot be
    told from noise.  ``ok`` otherwise.  A regression outranks an
    unresolved spread: it is reported even when the data are noisy.
    """
    a = statistics.median(first)
    b = statistics.median(second)
    worse = worsening(a, b, better)
    spreads = [s for s in (spread(first), spread(second)) if s is not None]
    widest = max(spreads) if spreads else None
    if worse > bound:
        status = "regressed"
    elif widest is not None and widest > bound:
        status = "unresolved"
    else:
        status = "ok"
    return {
        "first": a,
        "second": b,
        "worse_by": worse,
        "spread": widest,
        "bound": bound,
        "status": status,
    }
