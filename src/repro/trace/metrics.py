"""Counters and fixed-bucket histograms.

The registry is the numbers side of the observability layer: cheap
monotonic counters for event/wake/heal rates.  Everything is plain
Python floats -- the hot increments must not allocate -- and
:meth:`MetricsRegistry.snapshot` renders the whole registry to a plain
dict for ``experiments.report`` and the CLI.  The fixed-bucket
:class:`Histogram` is the traffic SLIs' latency distribution.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from repro.persist.core import Persistent, rows, scalar, table

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.value:g}>"


class Histogram(Persistent):
    """Fixed-bucket histogram: counts of observations per upper bound,
    plus an overflow bucket and the count."""

    __slots__ = ("name", "bounds", "counts", "count")
    _persist = (scalar("bounds", lambda v: tuple(float(b) for b in v),
                       enc=list),
                rows("counts", int), scalar("count", int))

    def __init__(self, name: str, buckets: Sequence[float]):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be a sorted non-empty sequence, "
                             f"got {buckets!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` observations of ``value`` at once -- the hook
        the aggregated traffic engine uses to account a whole demand
        batch at its mean latency without per-request loops."""
        if n <= 0:
            return
        self.counts[bisect.bisect_left(self.bounds, value)] += n
        self.count += n

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
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry(Persistent):
    """Named counters, created on first use.

    ``registry.counter("agent.runs").inc()`` is the whole API surface
    at an instrumentation site; the registry guarantees one instance
    per name so call sites can cache the handle.
    """

    _persist = (table("counters", Counter, attrgetter("value"),
                      attr="_counters"),)

    def __init__(self):
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(0.0)
        return c

    def snapshot(self) -> Dict[str, dict]:
        """The whole registry as a plain dict (stable key order)."""
        return {"counters": {n: c.value
                             for n, c in sorted(self._counters.items())}}
