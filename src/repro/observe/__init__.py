"""repro.observe: telemetry, alerting, incident reports.

The observability subsystem built over the substrate's existing
surfaces, with one owner per signal: :class:`TelemetryHub` keeps the
condition history the ledger streams in and the per-class SLI rings
the burn windows read; :class:`AlertManager` runs multi-window
burn-rate rules over those rings and pages through the notification
channel; :func:`build_reports` joins every ledger into per-fault causal
incident reports.  Point-in-time counters live in the tracer's
metrics registry and nowhere else.  Where the simulator's own
wall-clock goes is measured from outside the package, by
``benchmarks/e2e/layers.py``.
"""

from repro.observe.alerts import (Alert, AlertManager, BurnRateRule,
                                  DEFAULT_BURN_RULES)
from repro.observe.incidents import (IncidentReport, build_reports,
                                     reconcile, render_markdown,
                                     render_markdown_all, reports_to_json)
from repro.observe.pipeline import TelemetryHub

__all__ = [
    "TelemetryHub",
    "Alert", "AlertManager", "BurnRateRule", "DEFAULT_BURN_RULES",
    "IncidentReport", "build_reports", "reconcile", "render_markdown",
    "render_markdown_all", "reports_to_json",
]
