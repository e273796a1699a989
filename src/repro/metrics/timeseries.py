"""Time-series handling for collected measurements.

§3.5: "Different types of measurements were associated together by
matching their timestamps.  Measurements were ordered by timestamp and
treated as a time series."  Implemented over numpy for the campaign-
scale aggregations (vectorised joins beat per-row Python by orders of
magnitude; see the hpc-parallel guides).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["TimeSeries", "merge_by_timestamp"]


class TimeSeries:
    """An append-friendly (timestamp, value) series.

    With ``maxlen`` the series keeps ring-buffer semantics: only the
    newest ``maxlen`` samples are retained.  Trimming is amortised --
    the backing lists are sliced in blocks once they reach twice the
    cap, so appends stay O(1) amortised while the telemetry rollup
    loop appends to hundreds of series every tick.

    Only :class:`repro.observe.pipeline.TelemetryHub` keeps series
    alive between calls (ringed, snapshotted); any other is built on
    read from the store that owns the samples, e.g. a sampler log.
    """

    def __init__(self, name: str = "", maxlen: Optional[int] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen!r}")
        self.name = name
        self.maxlen = maxlen
        #: samples dropped by the ring cap (windows reaching further
        #: back than the retained history should know they are clipped)
        self.dropped = 0
        self._t: List[float] = []
        self._v: List[float] = []
        # list->ndarray conversion is O(n); campaign aggregations read
        # .times/.values thousands of times between appends, so cache
        # the arrays and invalidate on mutation
        self._t_arr: Optional[np.ndarray] = None
        self._v_arr: Optional[np.ndarray] = None

    def append(self, t: float, value: float) -> None:
        if self._t and t < self._t[-1]:
            raise ValueError(
                f"timestamps must be non-decreasing ({t} < {self._t[-1]})")
        self._t.append(float(t))
        self._v.append(float(value))
        if self.maxlen is not None and len(self._t) >= 2 * self.maxlen:
            cut = len(self._t) - self.maxlen
            del self._t[:cut]
            del self._v[:cut]
            self.dropped += cut
        self._t_arr = None
        self._v_arr = None

    def last(self) -> float:
        """Newest value (0.0 on an empty series)."""
        return self._v[-1] if self._v else 0.0

    def value_at(self, t: float) -> float:
        """Value of the newest sample with timestamp <= ``t``.

        Falls back to the oldest retained sample when ``t`` predates
        the (possibly ring-trimmed) history, and 0.0 on an empty
        series -- the lookup burn-rate windows use for "cumulative
        count as of ``now - window``"."""
        if not self._t:
            return 0.0
        i = bisect.bisect_right(self._t, t) - 1
        return self._v[max(0, i)]

    def __len__(self) -> int:
        return len(self._t)

    @property
    def times(self) -> np.ndarray:
        if self._t_arr is None:
            self._t_arr = np.asarray(self._t, dtype=np.float64)
        return self._t_arr

    @property
    def values(self) -> np.ndarray:
        if self._v_arr is None:
            self._v_arr = np.asarray(self._v, dtype=np.float64)
        return self._v_arr

    # -- persistence -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {"maxlen": self.maxlen, "dropped": self.dropped,
                "t": list(self._t), "v": list(self._v)}

    def restore_state(self, state: dict) -> None:
        self.maxlen = state["maxlen"]
        self.dropped = int(state["dropped"])
        self._t = [float(x) for x in state["t"]]
        self._v = [float(x) for x in state["v"]]
        self._t_arr = None
        self._v_arr = None


def merge_by_timestamp(series: Sequence[TimeSeries], *,
                       tolerance: float = 0.0) -> Dict[str, np.ndarray]:
    """Join several series on (approximately) matching timestamps.

    Returns a dict with key ``"t"`` (the common timestamps) and one key
    per series name holding the matched values.  A timestamp is kept
    when *every* series has a sample within ``tolerance`` of it.
    This is the paper's 'associated together by matching timestamps'.
    """
    if not series:
        return {"t": np.empty(0)}
    base = series[0]
    t0 = base.times
    keep = np.ones(len(t0), dtype=bool)
    matched: List[np.ndarray] = []
    for s in series[1:]:
        ts = s.times
        if len(ts) == 0:
            return {"t": np.empty(0), base.name: np.empty(0),
                    **{x.name: np.empty(0) for x in series[1:]}}
        idx = np.searchsorted(ts, t0)
        idx = np.clip(idx, 0, len(ts) - 1)
        # nearest of idx and idx-1
        left = np.clip(idx - 1, 0, len(ts) - 1)
        use_left = np.abs(ts[left] - t0) <= np.abs(ts[idx] - t0)
        nearest = np.where(use_left, left, idx)
        ok = np.abs(ts[nearest] - t0) <= tolerance
        keep &= ok
        matched.append(nearest)
    out: Dict[str, np.ndarray] = {"t": t0[keep], base.name: base.values[keep]}
    for s, nearest in zip(series[1:], matched):
        out[s.name] = s.values[nearest[keep]]
    return out
