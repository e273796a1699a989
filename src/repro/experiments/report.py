"""ASCII table helpers shared by the benches and the CLI."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["table", "fmt", "metrics_summary"]


def fmt(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


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
    """Render a :meth:`MetricsRegistry.snapshot` dict as ASCII tables."""
    parts: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        parts.append(table(["counter", "value"],
                           sorted(counters.items()), title=title))
    gauges = snapshot.get("gauges", {})
    if gauges:
        parts.append(table(["gauge", "value"], sorted(gauges.items())))
    hists = snapshot.get("histograms", {})
    if hists:
        rows = [(name, h["count"], round(h["mean"], 3))
                for name, h in sorted(hists.items())]
        parts.append(table(["histogram", "count", "mean"], rows))
    if not parts:
        return f"{title}\n  (no metrics recorded)"
    return "\n\n".join(parts)
