"""Counters, gauges and fixed-bucket histograms.

The registry is the numbers side of the observability layer: cheap
monotonic counters for event/wake/heal rates, gauges for point-in-time
levels, and fixed-bucket histograms for latency-ish distributions.
Everything is plain Python floats -- the hot increments must not
allocate -- and :meth:`MetricsRegistry.snapshot` renders the whole
registry to a plain dict for ``experiments.report`` and the CLI.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.persist.core import Persistent, rows, scalar, snapshot_node

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: default histogram bucket upper bounds, seconds: spans sub-second
#: kernel work up to multi-hour repairs
DEFAULT_BUCKETS = (0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 14400.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """A point-in-time level (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram(Persistent):
    """Fixed-bucket histogram: counts of observations per upper bound,
    plus an overflow bucket, total and count for the mean."""

    __slots__ = ("name", "bounds", "counts", "count", "total")
    _persist = (scalar("bounds", lambda v: tuple(float(b) for b in v),
                       enc=list),
                rows("counts", int), scalar("count", int),
                scalar("total", float))

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be a sorted non-empty sequence, "
                             f"got {buckets!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` observations of ``value`` at once -- the hook
        the aggregated traffic engine uses to account a whole demand
        batch at its mean latency without per-request loops."""
        if n <= 0:
            return
        self.counts[bisect.bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile by linear interpolation inside the
        containing bucket.  The overflow bucket reports its lower bound
        (the histogram does not know how far the tail reaches).

        Every in-range ``q`` has a defined value: an empty histogram
        answers 0.0, ``q=0`` the lower bound of the first occupied
        bucket and ``q=1`` the upper bound of the last one -- the
        alerting tier probes these extremes on freshly-created series,
        so none of them may raise."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        if q == 1.0:
            for i in range(len(self.counts) - 1, -1, -1):
                if self.counts[i]:
                    return (self.bounds[-1] if i >= len(self.bounds)
                            else self.bounds[i])
        target = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target and c:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                if i >= len(self.bounds):      # overflow bucket
                    return self.bounds[-1]
                hi = self.bounds[i]
                frac = (target - (cum - c)) / c
                return lo + frac * (hi - lo)
        return self.bounds[-1]

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean():g}>"


class MetricsRegistry:
    """Named metrics, created on first use.

    ``registry.counter("agent.runs").inc()`` is the whole API surface
    at an instrumentation site; the registry guarantees one instance
    per name so call sites can cache the handle.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access --------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets)
        return h

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """The whole registry as a plain dict (stable key order)."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {"bounds": list(h.bounds), "counts": list(h.counts),
                    "count": h.count, "total": h.total, "mean": h.mean()}
                for n, h in sorted(self._histograms.items())},
        }

    # -- persistence ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Unlike :meth:`snapshot` (a rendered export), this is the
        loss-free form a checkpoint restores from."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": snapshot_node(
                dict(sorted(self._histograms.items()))),
        }

    def restore_state(self, state: dict) -> None:
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        for name, value in state["counters"].items():
            self.counter(name).value = float(value)
        for name, value in state["gauges"].items():
            self.gauge(name).value = float(value)
        for name, h in state["histograms"].items():
            self.histogram(name, h["bounds"]).restore_state(h)
