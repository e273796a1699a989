"""Command-line experiment runner.

``repro-exp <experiment>`` regenerates any of the paper's evaluation
artefacts from the terminal:

.. code-block:: text

    repro-exp fig2 --replications 5
    repro-exp userqos --population 1000000
    repro-exp relocation --trace relocation.json --timeline
    repro-exp fig3
    repro-exp fig4
    repro-exp latency --trace latency.json
    repro-exp mttr
    repro-exp federation
    repro-exp metrics --timeline
    repro-exp metrics --federation
    repro-exp wakes
    repro-exp incidents --json incidents.json --markdown incidents.md
    repro-exp ablation-frequency
    repro-exp ablation-resubmission
    repro-exp ablation-network
    repro-exp ablation-centralised
    repro-exp ablation-checkpointing
    repro-exp all
    repro-exp chaos run --episodes 200
    repro-exp chaos corpus | replay tests/corpus | shrink failing.json

``--trace FILE`` writes a Chrome ``trace_event`` JSON (open it in
``chrome://tracing`` or Perfetto) and ``--timeline`` appends the
flat-ASCII per-fault incident timeline; both apply to the experiments
that drive a live site (``latency``, ``metrics``).

``incidents`` runs an observed fault storm (telemetry hub, burn-rate
pages, causal post-mortems); ``--json FILE`` / ``--markdown FILE``
write the full incident reports as machine- and human-readable
artefacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.ablations import ABLATIONS

__all__ = ["main"]


def _fig2(args) -> str:
    if getattr(args, "full_year", False) or getattr(args, "resume", None):
        from repro.experiments import fullyear
        return fullyear.format_result(fullyear.run_full_year(
            args.seed, hosts=args.hosts, hours=args.hours,
            segments=args.segments, checkpoint_dir=args.checkpoint_dir,
            resume=args.resume))
    from repro.experiments import fig2
    seeds = list(range(args.seed, args.seed + args.replications))
    return fig2.format_result(fig2.run_replicated(seeds))


def _userqos(args) -> str:
    from repro.experiments import userqos
    seeds = list(range(args.seed, args.seed + args.replications))
    return userqos.format_result(
        userqos.run_replicated(seeds, population=args.population))


def _relocation(args) -> str:
    from repro.experiments import relocation
    seeds = list(range(args.seed, args.seed + args.replications))
    out = relocation.format_result(
        relocation.run_replicated(seeds, population=args.population))
    tracer = _make_tracer(args)
    if tracer is not None:
        # one traced replication so --trace/--timeline show the
        # relocate.* phases of every modelled failover
        relocation.run_once(args.seed, population=args.population,
                            tracer=tracer)
        out += _trace_outputs(args, tracer)
    return out


def _fig3(args) -> str:
    from repro.experiments import overhead
    return overhead.format_cpu(overhead.run(seed=args.seed))


def _fig4(args) -> str:
    from repro.experiments import overhead
    return overhead.format_memory(overhead.run(seed=args.seed))


def _latency(args) -> str:
    from repro.experiments import latency
    tracer = _make_tracer(args)
    out = latency.format_result(latency.run(seed=args.seed, tracer=tracer))
    return out + _trace_outputs(args, tracer)


def _mttr(args) -> str:
    from repro.experiments import mttr
    tracer = _make_tracer(args)
    out = mttr.format_result(mttr.run(seed=args.seed, tracer=tracer))
    return out + _trace_outputs(args, tracer, timeline=False)


def _federation(args) -> str:
    """S-fed: the 3-site site-loss story, all arms."""
    from repro.experiments import federation
    return federation.format_result(federation.run(
        seed=args.seed, population=args.population))


def _metrics_federation(args) -> str:
    """Per-site federation metrics after a site-loss storm."""
    from repro.experiments.report import table
    from repro.federation import build_federation
    from repro.federation.config import three_site_config
    from repro.ops.console import OperatorConsole

    fed = build_federation(three_site_config(
        population=120_000, seed=args.seed))
    lon = fed.sites["lon"]
    console = OperatorConsole(lon.notifications, lon.sim)
    console.attach_federation(fed)
    fed.start_traffic()
    fed.run(2 * 3600.0)
    nyc = fed.sites["nyc"]
    for name in sorted(nyc.dc.hosts):
        nyc.dc.hosts[name].crash()
    fed.run(2 * 3600.0)

    rows = []
    for name in sorted(fed.sites):
        s = fed.site_summary(name)
        rows.append([name, "LOST" if s["lost"] else "up",
                     f"{s['hosts_up']}/{s['hosts_total']}",
                     s["open_conditions"], int(s.get("served", 0)),
                     f"{s.get('user_minutes_lost', 0.0):.1f}",
                     s.get("takeovers_hosted", 0)])
    out = table(["site", "state", "hosts up", "open cond", "served",
                 "user-min lost", "takeovers"],
                rows, title="Federation metrics after a 4 h "
                            "site-loss run (nyc lost at t+2h)")
    return out + "\n\n" + console.board(fed.now)


def _metrics(args) -> str:
    """Short full-fidelity fault storm; dump the metrics registry."""
    if getattr(args, "federation", False):
        return _metrics_federation(args)
    from repro.experiments.report import metrics_summary
    from repro.experiments.runner import FidelityHarness
    from repro.experiments.site import SiteConfig, build_site
    from repro.trace import install_tracer

    site = build_site(SiteConfig.test_scale(
        seed=args.seed, with_workload=False, with_feeds=False))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    site.run(1800.0)
    inj = harness.injector
    inj.db_crash(site.databases[0])
    inj.app_hang(site.frontends[0])
    inj.runaway_process(site.databases[1].host)
    site.run(2 * 3600.0)
    harness.scan_flags_for_detection()
    out = metrics_summary(tracer.metrics.snapshot(),
                          title="Site metrics after a 2 h storm run")
    out += "\n\n" + _wake_accounting(site)
    return out + _trace_outputs(args, tracer)


def _wake_accounting(site) -> str:
    """Operator-facing wake/skip/missed totals across every suite."""
    runs = skipped = demand = 0
    for suite in site.suites.values():
        totals = suite.totals()
        runs += totals["runs"]
        skipped += totals["skipped"]
        demand += totals["demand_wakes"]
    missed = sum(job.missed for host in site.dc.all_hosts()
                 for job in host.crond.jobs.values())
    return ("Wake accounting\n"
            f"  agent runs         {runs}\n"
            f"  runs skipped       {skipped}\n"
            f"  demand wakes       {demand}\n"
            f"  cron grid missed   {missed}\n"
            f"  wake policy        {site.config.wake_policy}")


def _wakes(args) -> str:
    """The adaptive-vs-fixed wake A/B on a healthy fleet."""
    from repro.experiments import wakes
    return wakes.format_result(wakes.run(seed=args.seed))


def _incidents(args) -> str:
    """Observed fault storm -> burn-rate pages -> incident reports."""
    import json

    from repro.experiments import incidents
    result = incidents.run(seed=args.seed, population=args.population)
    out = incidents.format_result(result)
    path = getattr(args, "json_out", None)
    if path:
        with open(path, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out += f"\n[incident reports written to {path}]"
    path = getattr(args, "markdown", None)
    if path:
        with open(path, "w") as fh:
            fh.write(result.to_markdown())
        out += f"\n[markdown post-mortems written to {path}]"
    return out


def _make_tracer(args):
    """A tracer when any trace output was asked for, else None (the
    experiment then creates its own, or runs untraced)."""
    if not (getattr(args, "trace", None) or getattr(args, "timeline", False)):
        return None
    from repro.trace import Tracer
    return Tracer()


def _trace_outputs(args, tracer, *, timeline: bool = True) -> str:
    """Append --timeline text and honour --trace FILE."""
    if tracer is None:
        return ""
    extra = ""
    if timeline and getattr(args, "timeline", False):
        from repro.trace import format_timeline
        extra += "\n\n" + format_timeline(tracer)
    path = getattr(args, "trace", None)
    if path:
        from repro.trace import write_chrome_trace
        write_chrome_trace(tracer, path)
        extra += f"\n\n[chrome trace written to {path}]"
    return extra


def _ablation(run, fmt):
    """The ``ablation-<name>`` runner for one ``ABLATIONS`` row."""
    return lambda args: fmt(run(args.seed))


_EXPERIMENTS = {
    "fig2": _fig2,
    "userqos": _userqos,
    "relocation": _relocation,
    "fig3": _fig3,
    "fig4": _fig4,
    "latency": _latency,
    "mttr": _mttr,
    "federation": _federation,
    "metrics": _metrics,
    "wakes": _wakes,
    "incidents": _incidents,
    **{f"ablation-{name}": _ablation(run, fmt)
       for name, (run, fmt) in ABLATIONS.items()},
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "chaos":
        # the chaos toolbox has its own subcommand grammar
        from repro.chaos.cli import main as chaos_main
        return chaos_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce the evaluation of Corsava & Getov, "
                    "'Improving Quality of Service in Application "
                    "Clusters' (IPDPS 2003).")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["all"],
                        help="which artefact to regenerate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replications", type=int, default=5,
                        help="fault-draw replications (fig2, userqos)")
    parser.add_argument("--population", type=int, default=1_000_000,
                        help="simulated user population (userqos)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON of the "
                             "run (latency, mttr, metrics)")
    parser.add_argument("--timeline", action="store_true",
                        help="print the flat-ASCII incident timeline")
    parser.add_argument("--federation", action="store_true",
                        help="metrics: per-site federation view after "
                             "a site-loss storm")
    parser.add_argument("--json", dest="json_out", metavar="FILE",
                        default=None,
                        help="write incident reports + reconciliation "
                             "as JSON (incidents)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="write rendered markdown post-mortems "
                             "(incidents)")
    parser.add_argument("--full-year", action="store_true",
                        help="fig2: run the live 1000-host site for the "
                             "whole simulated year in checkpointed "
                             "segments instead of the campaign fast path")
    parser.add_argument("--hosts", type=int, default=1000,
                        help="full-year live site size (fig2 --full-year)")
    parser.add_argument("--hours", type=float, default=8760.0,
                        help="full-year horizon in simulated hours")
    parser.add_argument("--segments", type=int, default=12,
                        help="resumable segments per full-year run")
    parser.add_argument("--checkpoint-dir", default="checkpoints",
                        help="where epoch checkpoints land "
                             "(fig2 --full-year)")
    parser.add_argument("--resume", metavar="CKPT", default=None,
                        help="resume a segmented full-year run from an "
                             "epoch checkpoint file")
    args = parser.parse_args(argv)

    names = (sorted(_EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    for name in names:
        print(_EXPERIMENTS[name](args))
        print()
    return 0


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
