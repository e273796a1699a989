"""repro.observe: telemetry, alerting, incident reports.

The observability subsystem built over the substrate's existing
surfaces: :class:`TelemetryHub` turns the metrics registry, condition
ledger and traffic SLIs into windowed ring-buffer series;
:class:`AlertManager` runs multi-window burn-rate and anomaly rules
over them and pages through the notification channel;
:func:`build_reports` joins every ledger into per-fault causal
incident reports.  Where the simulator's own wall-clock goes is measured
from outside the package, by ``benchmarks/e2e/layers.py``.
"""

from repro.observe.alerts import (Alert, AlertManager, BurnRateRule,
                                  DEFAULT_BURN_RULES, EwmaAnomalyDetector)
from repro.observe.incidents import (IncidentReport, build_reports,
                                     reconcile, render_markdown,
                                     render_markdown_all, reports_to_json,
                                     write_json)
from repro.observe.pipeline import DEFAULT_COUNTERS, TelemetryHub

__all__ = [
    "TelemetryHub", "DEFAULT_COUNTERS",
    "Alert", "AlertManager", "BurnRateRule", "DEFAULT_BURN_RULES",
    "EwmaAnomalyDetector",
    "IncidentReport", "build_reports", "reconcile", "render_markdown",
    "render_markdown_all", "reports_to_json", "write_json",
]
