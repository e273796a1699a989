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
- :mod:`storm` -- a short fault storm's metrics and wake accounting,
  and the federation's per-site view after a site loss.
- :mod:`wakes` -- adaptive, event-triggered agent wakes vs the fixed
  cron grid on a healthy fleet.
- :mod:`ablations` -- agent frequency, resubmission policy, private-
  network failover, local-vs-centralised management.
- :mod:`runner` -- the full-fidelity harness wiring faults to the
  downtime ledger.
- :mod:`report` -- ASCII tables, the mean of replicated summaries and
  trace artifacts, shared by the experiments.

:data:`EXPERIMENTS` is the one list of ``repro-exp`` rows.
"""

from importlib import import_module

from repro.experiments.site import Site, build_site, SiteConfig
from repro.experiments.runner import FidelityHarness
from repro.experiments import fig2, overhead, latency, mttr, ablations, report

# the other modules pull in the traffic, observe and federation tiers;
# they load on first import (``from repro.experiments import *``
# included) -- the tables below name them as strings for that reason
__all__ = ["Site", "SiteConfig", "build_site", "FidelityHarness",
           "EXPERIMENTS", "VARIANTS", "resolve",
           "fig2", "overhead", "latency", "mttr", "ablations", "report",
           "userqos", "relocation", "federation", "incidents", "wakes",
           "fullyear", "storm"]

#: ``repro-exp <row>`` -> ``(run, format)``, each a ``"module:function"``
#: of this package.  The row prints ``format(run(seed=..., **options))``:
#: the options it accepts are the keyword parameters of its ``run``, and
#: an option left unset takes the default ``run`` declares.
EXPERIMENTS = {
    "ablation-centralised": ("ablations:centralised_comparison",
                             "ablations:format_centralised"),
    "ablation-checkpointing": ("ablations:checkpointing_comparison",
                               "ablations:format_checkpointing"),
    "ablation-frequency": ("ablations:frequency_sweep",
                           "ablations:format_frequency"),
    "ablation-network": ("ablations:network_failover",
                         "ablations:format_network"),
    "ablation-resubmission": ("ablations:resubmission_comparison",
                              "ablations:format_resubmission"),
    "federation": ("federation:run", "federation:format_result"),
    "fig2": ("fig2:run_replicated", "fig2:format_result"),
    "fig3": ("overhead:run", "overhead:format_cpu"),
    "fig4": ("overhead:run", "overhead:format_memory"),
    "incidents": ("incidents:run", "incidents:format_result"),
    "latency": ("latency:run", "latency:format_result"),
    "metrics": ("storm:run", "storm:format_result"),
    "mttr": ("mttr:run", "mttr:format_result"),
    "relocation": ("relocation:run_replicated", "relocation:format_result"),
    "userqos": ("userqos:run_replicated", "userqos:format_result"),
    "wakes": ("wakes:run", "wakes:format_result"),
}

#: ``(row, option) -> (run, format)`` the row runs instead when
#: ``option`` is set
VARIANTS = {
    ("fig2", "full_year"): ("fullyear:run_full_year",
                            "fullyear:format_result"),
    ("fig2", "resume"): ("fullyear:run_full_year", "fullyear:format_result"),
    ("metrics", "federation"): ("storm:run_federation",
                                "storm:format_federation"),
}


def resolve(ref: str):
    """The function a ``"module:function"`` table entry names."""
    module, name = ref.split(":")
    return getattr(import_module(f"{__name__}.{module}"), name)
