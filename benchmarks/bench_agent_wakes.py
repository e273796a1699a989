"""Agent-wake bench: the adaptive policy vs the fixed cron grid.

Three claims, each asserted:

- **quiescence pays**: a healthy, warmed fleet under the adaptive
  policy takes >= 5x fewer agent wakes (and CPU) than the fixed grid
  over a steady-state window (full size: 1000 hosts / 6000 agents);
- **reactivity is free**: trigger-driven demand wakes detect injected
  faults no later than the fixed grid does -- in practice at the
  instant of injection, even with every agent backed off to its
  maximum period;
- **the control plane cannot tell**: a plain site's decisions and
  those of a site paired with the full-rescan reference stay
  byte-identical and mismatch-free under either wake policy.

The measured table is written to ``BENCH_wakes.json`` as the recorded
baseline on full-size runs.
"""

import json
import os

from conftest import emit

from repro.experiments import wakes


def test_wake_reduction_and_detection(one_shot, quick):
    n_hosts = 100 if quick else 1000
    window = 3600.0 if quick else 2 * 3600.0
    min_ratio = 4.0 if quick else 5.0
    faults = 4 if quick else 8

    def run():
        out = {"steady": {}, "latency": {}}
        for policy in ("fixed", "adaptive"):
            out["steady"][policy] = wakes.steady_state(
                policy, n_hosts=n_hosts, window=window)
            out["latency"][policy] = wakes.detection_campaign(
                policy, faults=faults)
        return out

    res = one_shot(run)
    steady, latency = res["steady"], res["latency"]
    wake_ratio = (steady["fixed"]["wakes_per_agent"]
                  / max(1e-9, steady["adaptive"]["wakes_per_agent"]))
    cpu_ratio = (steady["fixed"]["cpu_seconds"]
                 / max(1e-9, steady["adaptive"]["cpu_seconds"]))
    mean = {p: sum(v) / max(1, len(v)) for p, v in latency.items()}

    lines = [f"{'policy':>9} {'wakes/agent':>12} {'cpu s':>9} "
             f"{'detect mean s':>14} {'detect max s':>13}"]
    for p in ("fixed", "adaptive"):
        lines.append(f"{p:>9} {steady[p]['wakes_per_agent']:>12.1f} "
                     f"{steady[p]['cpu_seconds']:>9.1f} "
                     f"{mean[p]:>14.1f} {max(latency[p]):>13.1f}")
    lines.append(f"{n_hosts} hosts, {window/3600:.1f} h window: "
                 f"{wake_ratio:.1f}x fewer wakes, "
                 f"{cpu_ratio:.1f}x less CPU")
    emit("\n".join(lines))

    # headline: a healthy fleet goes quiescent
    assert wake_ratio >= min_ratio
    assert cpu_ratio >= min_ratio

    # both campaigns actually detected their faults
    assert len(latency["fixed"]) == len(latency["adaptive"]) == faults
    # reactivity: adaptive detection is no worse than the fixed grid
    assert mean["adaptive"] <= mean["fixed"]
    assert max(latency["adaptive"]) <= max(latency["fixed"])

    if quick:
        return      # the committed baseline records the full-size run
    baseline = {
        "bench": "agent_wakes",
        "quick": False,
        "n_hosts": n_hosts,
        "window_hours": window / 3600.0,
        "wakes_per_agent": {p: round(steady[p]["wakes_per_agent"], 2)
                            for p in steady},
        "cpu_seconds": {p: round(steady[p]["cpu_seconds"], 2)
                        for p in steady},
        "wake_ratio": round(wake_ratio, 2),
        "cpu_ratio": round(cpu_ratio, 2),
        "detection_mean_s": {p: round(mean[p], 2) for p in mean},
        "detection_max_s": {p: round(max(latency[p]), 2)
                            for p in latency},
    }
    path = os.path.join(os.path.dirname(__file__), "BENCH_wakes.json")
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_control_plane_parity_under_both_policies(one_shot, quick):
    policies = ("fixed", "adaptive")

    def run():
        return {p: wakes.paired_parity(p) for p in policies}

    res = one_shot(run)
    lines = []
    for p in policies:
        r = res[p]
        lines.append(f"{p}: {len(r['decisions'])} decisions, "
                     f"{r['sweep_mismatches']} sweep / "
                     f"{r['dgspl_mismatches']} dgspl mismatches, "
                     f"{r['demand_wakes']} demand wakes")
    emit("\n".join(lines))

    for p in policies:
        r = res[p]
        # the refactor's contract: zero divergence, byte-equal logs
        assert r["sweep_mismatches"] == 0
        assert r["dgspl_mismatches"] == 0
        assert r["model_resyncs"] == 0
        assert r["decisions_equal"]
        assert r["decisions"], "campaign must produce decisions"
        # the watchdog's demand-wake tier fired under both policies
        assert r["demand_wakes"] >= 1
