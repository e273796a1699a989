"""ASCII timelines (§3.5).

"Measurements were ordered by timestamp and treated as a time series to
produce graphical representations of the system performance either as a
whole or by component/workgroup" -- and §5: "Administrators can
generate timelines of system behaviour and observe similar behavioural
patterns."

Everything in this system is flat ASCII, so the "graphics" are too:
a block-character sparkline per series, with aligned time axes so
workgroups can be eyeballed together.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.metrics.timeseries import TimeSeries

__all__ = ["sparkline", "render_timeline", "render_dashboard"]

_BLOCKS = " .:-=+*#%@"


def sparkline(values: Sequence[float], *, width: int = 60,
              lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render values as a fixed-width ASCII sparkline.

    Values are bucket-averaged down (or sampled up) to ``width`` cells
    and mapped onto a 10-level block ramp.  ``lo``/``hi`` pin the scale
    (defaults: data min/max).
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return " " * width
    # resample to width cells by bucket means
    idx = np.floor(np.linspace(0, width, num=vals.size,
                               endpoint=False)).astype(np.int64)
    sums = np.bincount(idx, weights=vals, minlength=width)
    counts = np.bincount(idx, minlength=width)
    cells = np.divide(sums, counts, out=np.full(width, np.nan),
                      where=counts > 0)
    # forward-fill empty cells
    last = 0.0
    filled = []
    for c in cells:
        if not np.isnan(c):
            last = c
        filled.append(last)
    cells = np.asarray(filled)
    floor = float(np.min(vals)) if lo is None else lo
    ceil = float(np.max(vals)) if hi is None else hi
    span = max(1e-12, ceil - floor)
    levels = np.clip((cells - floor) / span, 0.0, 1.0)
    ramp = np.minimum((levels * (len(_BLOCKS) - 1)).round().astype(int),
                      len(_BLOCKS) - 1)
    return "".join(_BLOCKS[i] for i in ramp)


def render_timeline(series: TimeSeries, *, width: int = 60) -> List[str]:
    """One series as [header, sparkline, axis] lines."""
    name = series.name
    vals = series.values
    if vals.size == 0:
        return [f"{name}: (no samples)"]
    t = series.times
    head = (f"{name}: min={vals.min():.1f} mean={vals.mean():.1f} "
            f"max={vals.max():.1f} (n={vals.size})")
    line = "|" + sparkline(vals, width=width) + "|"
    axis = (f" t=[{t[0]:.0f} .. {t[-1]:.0f}]s "
            f"({(t[-1] - t[0]) / 3600.0:.1f} h)")
    return [head, line, axis]


def render_dashboard(named_series: Dict[str, TimeSeries], *,
                     width: int = 60) -> str:
    """Several series stacked with aligned sparklines -- the
    'by component/workgroup' view."""
    out: List[str] = []
    pad = max((len(n) for n in named_series), default=0)
    for name in sorted(named_series):
        ts = named_series[name]
        vals = ts.values
        if vals.size == 0:
            out.append(f"{name:>{pad}} | (no samples)")
            continue
        out.append(f"{name:>{pad}} |{sparkline(vals, width=width)}| "
                   f"{vals.mean():8.1f} avg")
    return "\n".join(out)
