"""Simulated-time calendar arithmetic.

The simulation epoch (t = 0.0) is **Monday 00:00**.  The paper's
operator-coverage data distinguishes daytime, overnight and weekend
periods, and intelliagents run on a cron grid of X minutes, so the
experiments need cheap, exact calendar classification of simulated
timestamps.

All functions accept scalar floats; the vectorised variants used by the
campaign statistics accept numpy arrays.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

__all__ = [
    "MINUTE", "HOUR", "DAY", "WEEK", "YEAR",
    "time_of_day", "day_of_week", "is_weekend", "is_business_hours",
    "period_of", "next_grid", "format_time",
]

MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY
YEAR = 365 * DAY

#: Daytime operator shift (paper: "during day time" detection ~1 h).
BUSINESS_START = 8 * HOUR
BUSINESS_END = 18 * HOUR

ArrayLike = Union[float, np.ndarray]


def time_of_day(t: ArrayLike) -> ArrayLike:
    """Seconds since local midnight."""
    return t % DAY


def day_of_week(t: ArrayLike) -> ArrayLike:
    """0 = Monday ... 6 = Sunday."""
    if isinstance(t, np.ndarray):
        return ((t % WEEK) // DAY).astype(np.int64)
    return int((t % WEEK) // DAY)


def is_weekend(t: ArrayLike) -> ArrayLike:
    """Saturday or Sunday."""
    return day_of_week(t) >= 5


def is_business_hours(t: ArrayLike) -> ArrayLike:
    """Weekday, between BUSINESS_START and BUSINESS_END."""
    tod = time_of_day(t)
    day = (tod >= BUSINESS_START) & (tod < BUSINESS_END)
    return day & ~is_weekend(t)


def period_of(t: float) -> str:
    """Classify a scalar timestamp as 'day' | 'overnight' | 'weekend'."""
    if is_weekend(t):
        return "weekend"
    if is_business_hours(t):
        return "day"
    return "overnight"


def next_grid(t: float, period: float, offset: float = 0.0) -> float:
    """First cron-grid point strictly after ``t``.

    Grid points are ``k * period + offset`` for integer ``k >= 0``.  A
    fault landing exactly on a grid point is seen only at the *next*
    point -- the agent waking at that instant has already sampled.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period!r}")
    k = math.floor((t - offset) / period)
    point = k * period + offset
    if point > t:
        return point
    nxt = (k + 1) * period + offset
    if nxt <= t:
        # float rounding pushed the quotient a grid step low (tiny
        # subnormal offsets can underflow the division); step once more
        nxt += period
    return nxt


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def format_time(t: float) -> str:
    """Human-readable simulated timestamp, e.g. ``'w03 Tue 14:05:00'``."""
    week = int(t // WEEK)
    dow = _DAYS[day_of_week(t)]
    tod = time_of_day(t)
    h = int(tod // HOUR)
    m = int((tod % HOUR) // MINUTE)
    s = int(tod % MINUTE)
    return f"w{week:02d} {dow} {h:02d}:{m:02d}:{s:02d}"
