"""Experiment drivers reproducing the paper's evaluation (§4).

One module per artefact:

- :mod:`site` -- the UK financial customer site (100 database, 55
  transaction-processing, 60 front-end servers) at full or test scale.
- :mod:`fig2` -- downtime before/after, by error category, one year.
- :mod:`fullyear` -- Fig. 2 on the live 1000-host site, a simulated
  year in checkpointed, resumable segments.
- :mod:`overhead` -- Figures 3 and 4: CPU % and memory, BMC vs agents.
- :mod:`latency` -- fault-detection latency by period (text of §4).
- :mod:`mttr` -- manual troubleshooting cost (2 h restart / 4 h total).
- :mod:`userqos` -- the Fig. 2 campaign priced in failed requests and
  user-minutes against a diurnal demand curve.
- :mod:`relocation` -- the same campaign with the service-relocation
  tier on and off.
- :mod:`federation` -- S-fed: three sites, one lost at its region's
  trading peak, with and without geo-steering and cross-site
  relocation.
- :mod:`incidents` -- an observed fault storm: burn-rate pages and
  reconciled causal post-mortems.
- :mod:`wakes` -- adaptive, event-triggered agent wakes vs the fixed
  cron grid on a healthy fleet.
- :mod:`ablations` -- agent frequency, resubmission policy, private-
  network failover, local-vs-centralised management.
- :mod:`runner` -- the full-fidelity harness wiring faults to the
  downtime ledger.
- :mod:`report` -- ASCII table helpers shared by benches and the CLI.
"""

from repro.experiments.site import Site, build_site, SiteConfig
from repro.experiments.runner import FidelityHarness
from repro.experiments import fig2, overhead, latency, mttr, ablations, report

# the other six drivers pull in the traffic, observe and federation
# tiers; they load on first import (``from repro.experiments import *``
# included)
__all__ = ["Site", "SiteConfig", "build_site", "FidelityHarness",
           "fig2", "overhead", "latency", "mttr", "ablations", "report",
           "userqos", "relocation", "federation", "incidents", "wakes",
           "fullyear"]
