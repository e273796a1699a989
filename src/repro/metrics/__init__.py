"""Performance measurement substrate (§3.5 of the paper).

Five measurement workgroups -- operating system, network, disks,
application processes and user processes -- collected by standard-tool
samplers, kept in circular-queue ASCII files classified by server then
group, associated by timestamp and treated as time series.

- :mod:`samplers` -- per-workgroup samplers built on the shell tools.
- :mod:`microstate` -- per-process microstate accounting aggregation.
- :mod:`circular_log` -- the configurable-length circular ASCII logs.
- :mod:`timeseries` -- timestamp joins and aggregation (numpy).
- :mod:`accounting` -- per-user / per-command process accounting.
"""

from repro.metrics.circular_log import CircularLog
from repro.metrics.samplers import (Sample, SamplerSuite, WORKGROUPS)
from repro.metrics.microstate import MicrostateAccountant
from repro.metrics.timeseries import TimeSeries, merge_by_timestamp
from repro.metrics.timeline import render_dashboard, sparkline
from repro.metrics.accounting import ProcessAccountant

__all__ = ["CircularLog", "Sample", "SamplerSuite", "WORKGROUPS",
           "MicrostateAccountant", "TimeSeries", "merge_by_timestamp",
           "render_dashboard", "sparkline",
           "ProcessAccountant"]
