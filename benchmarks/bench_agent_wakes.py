"""Agent-wake bench: the adaptive policy vs the fixed cron grid.

Two claims, each asserted:

- **quiescence pays**: a healthy, warmed fleet under the adaptive
  policy takes >= 5x fewer agent wakes (and CPU) than the fixed grid
  over a steady-state window (full size: 1000 hosts / 6000 agents);
- **reactivity is free**: trigger-driven demand wakes detect injected
  faults no later than the fixed grid does -- in practice at the
  instant of injection, even with every agent backed off to its
  maximum period.

That the control plane cannot tell the policies apart is tier-1:
``tests/test_controlplane_consistency.py``.
"""

from conftest import emit

from repro.experiments import wakes


def test_wake_reduction_and_detection(quick):
    n_hosts = 100 if quick else 1000
    window = 3600.0 if quick else 2 * 3600.0
    min_ratio = 4.0 if quick else 5.0
    faults = 4 if quick else 8

    steady, latency = {}, {}
    for policy in ("fixed", "adaptive"):
        steady[policy] = wakes.steady_state(
            policy, n_hosts=n_hosts, window=window)
        latency[policy] = wakes.detection_campaign(policy, faults=faults)
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
