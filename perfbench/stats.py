"""Arithmetic shared by the benchmark: percentiles, spreads and metric names."""

from __future__ import annotations

import math
import re
import statistics

import numpy as np

# Metric names: a letter or digit first, then letters, digits, `_`, `.`, `-`;
# at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A tail percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND_TAIL = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it.

    Never below the median and never above p99: with fewer than 20 samples
    the tail is the median itself.
    """
    if n <= 0:
        return 50
    p = math.floor(100.0 * (1.0 - SAMPLES_BEYOND_TAIL / n) + 1e-9)
    return min(99, max(50, p))


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def median(values) -> float:
    return percentile(values, 50)


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
