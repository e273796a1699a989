"""Simulation-time tracing and metrics (the observability layer).

The paper's claims are timeline claims -- fault injected, agent
detects, diagnosis, repair, service restored -- so the reproduction
needs per-incident traces, not just end-of-run aggregates.  This
package provides:

- :mod:`tracer` -- :class:`Tracer` (sim-time spans and instants, fault
  correlation, counts), the off tracer :data:`NULL_TRACER` that takes
  the same calls and records nothing, and :func:`install_tracer`.
- :mod:`metrics` -- :class:`MetricsRegistry` of counters, snapshot-able
  to a plain dict, and the SLIs' fixed-bucket :class:`Histogram`.
- :mod:`export` -- Chrome ``trace_event`` JSON, incident
  reconstruction by fault id, and the flat-ASCII incident timeline.

Usage::

    from repro.trace import install_tracer, write_chrome_trace
    site = build_site(...)
    tracer = install_tracer(site.sim)
    ... run, inject faults ...
    write_chrome_trace(tracer, "trace.json")
    print(format_timeline(tracer))
"""

from repro.trace.metrics import Histogram, MetricsRegistry
from repro.trace.tracer import (NULL_SPAN, NULL_TRACER, Span, Tracer,
                                install_tracer)
from repro.trace.export import (IncidentTrace, format_timeline,
                                incident_traces, span_durations,
                                to_chrome, write_chrome_trace)

__all__ = [
    "Histogram", "MetricsRegistry",
    "NULL_SPAN", "NULL_TRACER", "Span", "Tracer", "install_tracer",
    "IncidentTrace", "format_timeline", "incident_traces",
    "span_durations", "to_chrome", "write_chrome_trace",
]
