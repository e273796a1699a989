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

:data:`EXPERIMENTS` is the one list of ``repro-exp`` rows, :data:`CLAIMS`
the one list of the paper's claims, checked on each run of their row.
"""

from collections import namedtuple
from importlib import import_module
from operator import attrgetter, itemgetter

from repro.experiments.site import Site, build_site, SiteConfig
from repro.experiments.runner import FidelityHarness
from repro.experiments import fig2, overhead, latency, mttr, ablations, report

# the other modules pull in the traffic, observe and federation tiers;
# they load on first import (``from repro.experiments import *``
# included) -- the tables below name them as strings for that reason
__all__ = ["Site", "SiteConfig", "build_site", "FidelityHarness",
           "EXPERIMENTS", "VARIANTS", "resolve", "Claim", "CLAIMS",
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


#: one of the paper's claims (``cite``: its figure or section, or the repo's
#: ablation id): ``measure`` reads a value off what ``row``'s ``run`` returns,
#: ``holds`` bounds it; a ``finding`` is a disagreement on record, not failed
Claim = namedtuple("Claim", "id cite row measure holds finding", defaults=("",))


def _row(row, cite, *claims):
    return [Claim(id, cite, row, *rest) for id, *rest in claims]


def _pick(key, names, by=None):
    """``x[name][key]`` for each name; ``by`` keys a list of rows first."""
    return lambda x: tuple(({r[by]: r for r in x} if by else x)[name][key] for name in names)


_QOS, _RESUB = ("availability", "failed_requests", "user_minutes_lost"), ("none", "random", "dgspl")

#: the paper's claims, by the row each reads: ``repro-exp`` checks a row's
#: on the result it has just printed (a :data:`VARIANTS` run checks none)
CLAIMS = (
    *_row("fig2", "Fig. 2",
        ("fig2.550h-then-tenfold-less",
         lambda s: [sum(s[column].values()) for column in ("before_hours", "after_hours")],
         lambda v: 350.0 < v[0] < 800.0 and v[1] < 80.0 and v[0] > 8.0 * v[1]),
        ("fig2.mid-crash-dominates", itemgetter("before_hours"),
         lambda v: max(v, key=v.get) == "mid-crash" and v["mid-crash"] > 0.4 * sum(v.values())),
        ("fig2.every-category-improves",
         lambda s: [c for c, h in s["before_hours"].items() if 0 < h < s["after_hours"][c]],
         lambda v: not v),
        ("fig2.fw-nw-hardware-improve-least", lambda s: [
            s["before_hours"][c] / max(0.25, s["after_hours"][c])
            for c in ("mid-crash", "lsf", "fw-nw", "hardware")],
         lambda v: min(v[:2]) > 2.0 * max(v[2:]))),
    *_row("fig3", "Fig. 3",
        ("fig3.agents-flat", lambda r: (min(r.agent_cpu), max(r.agent_cpu)),
         lambda v: 0.02 <= v[0] and v[1] <= 0.09 and v[1] - v[0] < 0.02),
        ("fig3.bmc-swings", lambda r: (min(r.bmc_cpu), max(r.bmc_cpu)),
         lambda v: 0.1 <= v[0] and v[1] <= 2.5 and v[1] > 1.3 * v[0]),
        ("fig3.ratio-10x", lambda r: sum(r.bmc_cpu) / sum(r.agent_cpu), lambda v: 4.0 < v < 40.0)),
    *_row("fig4", "Fig. 4",
        ("fig4.agents-flat", lambda r: (min(r.agent_mem), max(r.agent_mem)),
         lambda v: 0.5 <= v[0] == v[1] <= 3.0),
        ("fig4.bmc-varies", lambda r: (min(r.bmc_mem), max(r.bmc_mem)),
         lambda v: 25.0 <= v[0] and v[1] <= 80.0 and v[1] > v[0] + 2.0),
        ("fig4.ratio-28x", lambda r: sum(r.bmc_mem) / sum(r.agent_mem), lambda v: 10.0 < v < 60.0)),
    *_row("latency", "§4 text",
        ("t-lat.agents-5min", attrgetter("agent_max_minutes", "agent_by_period"),
         lambda v: v[0] <= 6.0 and max(v[1].values()) <= 0.11),
        ("t-lat.manual-1h-10h-25h", attrgetter("manual_by_period"),
         lambda v: (v["day"] < v["overnight"] < v["weekend"] and 0.4 < v["day"] < 2.5
                    and 5.0 < v["overnight"] < 16.0 and 12.0 < v["weekend"] < 45.0)),
        ("t-lat.overnight-50x", attrgetter("manual_by_period", "agent_by_period"),
         lambda v: v[0]["overnight"] > 50.0 * max(1e-6, v[1]["overnight"]))),
    *_row("mttr", "§4 text",
        ("t-mttr.restart-2h", attrgetter("manual_median_repair_h"), lambda v: 1.0 < v < 5.0),
        ("t-mttr.escalated-4h", attrgetter("manual_escalated_mean_h"), lambda v: 3.0 < v < 8.0),
        ("t-mttr.agent-repair", lambda r: {c.value: h for c, (_, _, h) in r.rows.items()},
         lambda v: (max(v["mid-crash"], v["lsf"], v["front-end"]) < 1.0
                    < min(v["fw-nw"], v["hardware"]))),
        ("t-mttr.agents-faster", attrgetter("agent_mean_repair_h", "manual_median_repair_h"),
         lambda v: v[0] < v[1])),
    *_row("ablation-frequency", "§3.3",
        ("a-freq.hourly-worse-1min-little-better", _pick("downtime_h", (1, 5, 60), "period_min"),
         lambda v: v[2] > v[0] and v[2] > 1.1 * v[1] and v[1] - v[0] < 0.4 * (v[2] - v[1])),
        ("a-freq.detection-tracks-grid", lambda rows: [r["mean_detection_h"] for r in rows],
         lambda v: v == sorted(v))),
    *_row("ablation-resubmission", "§4",
        ("a-resub.real-work", lambda x: [min(r[k] for r in x) for k in ("submitted", "db_crashes")],
         lambda v: v[0] >= 60 and v[1] >= 3),
        ("a-resub.completion", _pick("completion_rate", _RESUB, "arm"),
         lambda v: min(v[1], v[2]) > v[0] + 0.05 and v[2] >= v[1] - 0.01),
        ("a-resub.nothing-left-failed", _pick("failed_final", _RESUB, "arm"),
         lambda v: v[2] <= v[0] / 3 and v[2] <= v[1] + 2),
        ("a-resub.dgspl-rescues-sooner", _pick("rescue_turnaround_h", ("dgspl", "random"), "arm"),
         lambda v: v[0] < 0.95 * v[1]),
        ("a-resub.dgspl-recrashes-no-more", _pick("recrash_rate", ("dgspl", "random"), "arm"),
         lambda v: v[0] <= v[1] + 0.05,
         "seed 0: the shortlist herds rescued jobs (ROADMAP item 5)")),
    *_row("ablation-checkpointing", "A-ckpt",
        ("a-ckpt.rescues", lambda rows: [r["rescued"] for r in rows], lambda v: min(v) > 10),
        ("a-ckpt.finer-banks-more", lambda rows: [r["mean_banked_h"] for r in rows],
         lambda v: v[0] == 0.0 and v == sorted(v)),
        ("a-ckpt.turnaround-falls", lambda rows: [r["rescue_turnaround_h"] for r in rows],
         lambda v: all(a >= b - 0.05 for a, b in zip(v, v[1:])) and v[-1] < 0.9 * v[0]),
        ("a-ckpt.completion-kept", lambda rows: [r["completion_rate"] for r in rows],
         lambda v: min(v) > v[0] - 0.05)),
    *_row("ablation-network", "§3.3",
        ("a-net.rerouted-no-loss", itemgetter("delta_delivered", "delta_rerouted", "delta_failed"),
         lambda v: v[0] > 0 and v[1] >= 0.9 * v[0] and v[2] == 0),
        ("a-net.public-lan-only-after", itemgetter("before", "public_bytes_delta"),
         lambda v: v[0]["rerouted"] == v[0]["bytes_public"] == 0 < v[1])),
    *_row("ablation-centralised", "§3.4",
        ("a-local.slopes",
         lambda rows: [[r[key] for r in rows] for key in ("console_cpu_pct", "admin_cpu_pct")],
         lambda v: (all(x == sorted(x) for x in v)
                    and v[0][-1] - v[0][0] > 50 * (v[1][-1] - v[1][0]))),
        ("a-local.at-200", lambda rows: next(r for r in rows if r["fleet"] == 200),
         lambda v: (v["console_cpu_pct"] > 25.0 and v["admin_cpu_pct"] < 1.0
                    and v["console_mem_mb"] > 20 * v["admin_mem_mb"]))),
    *_row("wakes", "S-wake",
        ("s-wake.quiescence", attrgetter("wake_ratio", "cpu_ratio"), lambda v: min(v) >= 5.0),
        ("s-wake.all-detected", attrgetter("missed"), lambda v: not any(v.values())),
        ("s-wake.detects-no-later", attrgetter("latency_mean", "latency_max"),
         lambda v: all(d["adaptive"] <= d["fixed"] for d in v))),
    *_row("userqos", "U-qos",
        ("u-qos.agents-better", lambda s: [_pick(key, ("before", "after"))(s) for key in _QOS],
         lambda v: 0.98 < v[0][0] < v[0][1] <= 1.0 and v[1][1] < v[1][0] and v[2][1] < v[2][0]),
        ("u-qos.day-costs-more", lambda s: [[
            s[a]["user_minutes_by_period"][p] / max(1e-9, s[a]["downtime_hours_by_period"][p])
            for p in ("day", "overnight")] for a in ("before", "after")],
         lambda v: all(day > overnight for day, overnight in v)),
        ("u-qos.peak-hour", itemgetter("peak_hour_user_minutes", "overnight_hour_user_minutes"),
         lambda v: v[0] > 5.0 * v[1])),
    *_row("relocation", "R-qos",
        ("r-qos.tier-lands-within-budget", itemgetter("relocations"),
         lambda v: (v["candidates"] > 0 and v["hours_saved"] > 0 and v["succeeded"] > 0
                    and v["succeeded"] >= v["failed"]
                    and v["hours_lost_to_rollbacks"] <= v["failed"] * 900.0 / 3600.0)),
        ("r-qos.relocation-better",
         lambda s: [_pick(key, ("before", "escalate", "relocate"))(s) for key in _QOS],
         lambda v: (0.98 < v[0][0] < v[0][1] < v[0][2] <= 1.0 and v[1][2] <= v[1][1]
                    and v[2][2] < v[2][1] < v[2][0]))),
    *_row("federation", "S-fed",
        ("s-fed.site-lost", lambda st: {
            (arm["site_loss_events"], arm["sites"]["hkg"]["lost"]) for arm in st.arms.values()},
         lambda v: v == {(1, True)}),
        ("s-fed.both-mechanisms-count", lambda st: {arm: st.availability(arm) for arm in st.arms},
         lambda v: (v["full"] > max(v["no-geo"], v["no-xsite"])
                    and 0.0 < min(v.values()) <= max(v.values()) < 1.0)),
        ("s-fed.each-recovers-its-own", lambda st: (
            st.arms["full"]["crosssite"]["succeeded"], "crosssite" in st.arms["no-xsite"],
            *(st.arms[arm]["geo"]["remote_steered"] for arm in ("full", "no-geo"))),
         lambda v: v[0] > 0 and not v[1] and v[2] > v[3]),
        ("s-fed.user-minutes", lambda st: [
            st.arms[arm]["global"]["user_minutes_lost"] for arm in ("full", "no-geo")],
         lambda v: v[0] < v[1])),
    *_row("incidents", "S-obs",
        ("s-obs.reports-reconcile", lambda r: r.reconciliation["downtime_ok"], bool),
        ("s-obs.alerts-beat-cron", attrgetter("alerts_beat_cron"), bool)),
)
