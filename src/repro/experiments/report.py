"""What the experiment modules share: ASCII tables, the mean of
replicated summary dicts, and the trace artifacts a run writes."""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["table", "fmt", "pct", "metrics_summary", "mean_summary",
           "trace_artifacts"]


def fmt(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def pct(a: float) -> str:
    return f"{100.0 * a:.4f}%"


def table(headers: Sequence[str], rows: Iterable[Sequence],
          title: Optional[str] = None) -> str:
    """Render a fixed-width ASCII table."""
    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def metrics_summary(snapshot: dict, title: str = "Metrics") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as an ASCII table."""
    counters = snapshot.get("counters", {})
    if not counters:
        return f"{title}\n  (no metrics recorded)"
    return table(["counter", "value"], sorted(counters.items()), title=title)


def _merge_mean(dicts: List[dict]) -> dict:
    """Element-wise mean of nested numeric dicts (labels pass through)."""
    first = dicts[0]
    out: dict = {}
    for key, val in first.items():
        if isinstance(val, dict):
            out[key] = _merge_mean([d[key] for d in dicts])
        elif isinstance(val, str):
            out[key] = val
        else:
            out[key] = float(np.mean([d[key] for d in dicts]))
    return out


def mean_summary(run_once: Callable[..., dict], seed: int,
                 replications: int, **kw) -> dict:
    """Mean of ``run_once(s, **kw)`` over the independent fault draws
    ``s = seed .. seed + replications - 1``.

    The draws go through :func:`repro.parallel.replicate` (process pool
    when it pays, in-process otherwise); the
    result is identical either way: each draw derives all randomness
    from its own seed, and the mean runs over the same ordered list."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    from repro.parallel import replicate   # pulls in multiprocessing
    merged = _merge_mean(replicate(
        partial(run_once, **kw), range(seed, seed + replications),
        min_parallel=2))
    merged["replications"] = replications
    return merged


def trace_artifacts(tracer, trace: Optional[str], timeline: bool) -> str:
    """Write the Chrome ``trace_event`` JSON to ``trace`` when it is
    given; the text a traced run appends to its table: the incident
    timeline when asked for, then where the trace went."""
    out = ""
    if timeline:
        from repro.trace import format_timeline
        out += "\n\n" + format_timeline(tracer)
    if trace:
        from repro.trace import write_chrome_trace
        write_chrome_trace(tracer, trace)
        out += f"\n\n[chrome trace written to {trace}]"
    return out
