"""User-traffic engine and user-perceived QoS accounting.

The paper's title claim is *quality of service*, but downtime hours
only measure it by proxy.  This package drives the demand side --
millions of simulated users against the site -- and reports QoS as
users experience it:

- :mod:`workload` -- open-loop, diurnal/weekday-aware arrival models
  per application class, seeded from named RNG streams.
- :mod:`engine` -- the fluid (aggregated-flow) traffic engine that
  makes 1M+ users affordable.
- :mod:`slo` -- streaming SLIs (availability, latency percentiles),
  SLOs with error budgets and burn rates, and the request-weighted
  unavailability join ("user-minutes lost") that prices downtime
  against concurrent demand.
- :mod:`frontdoor` -- QoS-aware demand spreading over DGSPL load
  advertisements, degrading to round-robin when the DGSPL is stale and
  shedding load flagged-down servers would otherwise absorb.

``repro.experiments.userqos`` joins this package with the Fig. 2 fault
campaign to restate the paper's 550 h -> 31 h claim as the
request-weighted availability statement the title actually makes.
"""

from repro.traffic.workload import (DemandCurve, DiurnalProfile,
                                    TrafficClass, FINANCIAL_CLASSES,
                                    FINANCIAL_PROFILE, financial_curve)
from repro.traffic.slo import (LATENCY_BUCKETS_MS, IncidentWindow,
                               QosOutcome, Sli, join_demand)
from repro.traffic.frontdoor import FrontDoor
from repro.traffic.engine import FluidTrafficEngine, doors_for_site

__all__ = [
    "DemandCurve", "DiurnalProfile", "TrafficClass",
    "FINANCIAL_CLASSES", "FINANCIAL_PROFILE", "financial_curve",
    "LATENCY_BUCKETS_MS", "IncidentWindow", "QosOutcome",
    "Sli", "join_demand",
    "FrontDoor",
    "FluidTrafficEngine", "doors_for_site",
]
