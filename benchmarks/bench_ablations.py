"""Ablation benches: the design choices DESIGN.md calls out, one test
per ``ablation-*`` row of ``repro.experiments.EXPERIMENTS``.  Each
asserts the shape the paper (or, for A-ckpt, its related work) argues
for; the tables are ``repro-exp ablation-<name>``.
"""

from conftest import emit

from repro.experiments import ablations


def test_frequency_sweep():
    """A-freq ablation: the agent wake period X.

    §3.3 calls X "an adjustable parameter" (default 5 minutes).  The sweep
    shows downtime growing with X -- and that the marginal value of waking
    more often than every few minutes is small, because repair time (not
    detection) then dominates.
    """
    rows = ablations.frequency_sweep(seed=0)
    emit(ablations.format_frequency(rows))

    downtimes = [r["downtime_h"] for r in rows]
    periods = [r["period_min"] for r in rows]
    assert periods == sorted(periods)

    # downtime grows with the wake period overall
    assert downtimes[-1] > downtimes[0]
    # hourly wakes are clearly worse than the 5-minute default
    five = downtimes[periods.index(5)]
    hourly = downtimes[periods.index(60)]
    assert hourly > five * 1.1

    # diminishing returns below the default: 1-minute wakes buy little
    one = downtimes[periods.index(1)]
    assert (five - one) < 0.4 * (hourly - five)

    # detection latency tracks the grid
    det = [r["mean_detection_h"] for r in rows]
    assert det == sorted(det)


def test_resubmission_policies():
    """A-resub ablation: failed-job resubmission policy, full fidelity.

    §4's argument for DGSPL-informed placement: manual choices crash
    overloaded/underpowered servers, and even random resubmission
    "significantly decreased downtime", with the shortlist better still.
    Three arms over the same site and workload: no resubmission, random
    resubmission, DGSPL resubmission.
    """
    rows = ablations.resubmission_comparison(seed=3)
    emit(ablations.format_resubmission(rows))
    by_arm = {r["arm"]: r for r in rows}

    none, random_, dgspl = (by_arm["none"], by_arm["random"],
                            by_arm["dgspl"])

    # every arm saw real work and real crashes
    for r in rows:
        assert r["submitted"] >= 60
        assert r["db_crashes"] >= 3

    # the paper's claim: even random resubmission "significantly
    # decreased downtime" over no resubmission -- and DGSPL too
    assert dgspl["completion_rate"] > none["completion_rate"] + 0.05
    assert random_["completion_rate"] > none["completion_rate"] + 0.05

    # resubmission arms leave (almost) nothing permanently failed
    assert dgspl["failed_final"] <= none["failed_final"] / 3
    assert dgspl["failed_final"] <= random_["failed_final"] + 2

    # DGSPL's edge over random: placement quality -- rescued jobs
    # finish sooner (they land on stronger, less-loaded servers) and do
    # not die again more often
    assert (dgspl["rescue_turnaround_h"]
            < random_["rescue_turnaround_h"] * 0.95)
    assert dgspl["recrash_rate"] <= random_["recrash_rate"] + 0.05
    assert dgspl["completion_rate"] >= random_["completion_rate"] - 0.01

    # and the manager actually resubmitted something
    assert dgspl["resubmitted"] is not None and dgspl["resubmitted"] > 0


def test_checkpointing_sweep():
    """A-ckpt ablation (extension): job checkpointing under DGSPL rescue.

    The paper's related work cites checkpointing [18] as an established
    recovery technique; its own system resubmits failed jobs from scratch.
    This ablation adds checkpointing to the rescued jobs and sweeps the
    interval: the smaller the interval, the less work a mid-job database
    crash destroys, so rescue turnaround falls monotonically while banked
    work grows.
    """
    rows = ablations.checkpointing_comparison(seed=3)
    emit(ablations.format_checkpointing(rows))

    # rows ordered none -> coarse -> fine
    turnaround = [r["rescue_turnaround_h"] for r in rows]
    banked = [r["mean_banked_h"] for r in rows]

    assert all(r["rescued"] > 10 for r in rows)

    # no checkpointing banks nothing; finer intervals bank more
    assert banked[0] == 0.0
    assert banked == sorted(banked)

    # rescue turnaround falls monotonically with finer checkpoints
    assert all(a >= b - 0.05 for a, b in zip(turnaround, turnaround[1:]))
    # and the end-to-end win vs no checkpointing is material (>10 %)
    assert turnaround[-1] < 0.9 * turnaround[0]

    # completion is not harmed by checkpointing
    rates = [r["completion_rate"] for r in rows]
    assert min(rates) > rates[0] - 0.05


def test_network_failover():
    """A-net ablation: private agent LAN failure and re-route (§3.3).

    "If the private network fails, intelliagents can automatically re-route
    their communication traffic over the public LAN."  Shape asserted:
    agent traffic keeps flowing after the failure, every post-failure
    delivery is rerouted, and the public LANs carry the displaced bytes.
    """
    r = ablations.network_failover(seed=1)
    emit(ablations.format_network(r))

    # traffic kept flowing across the failure
    assert r["delta_delivered"] > 0
    # the re-route actually happened
    assert r["delta_rerouted"] > 0
    assert r["delta_rerouted"] >= 0.9 * r["delta_delivered"]
    # and the bytes moved to the public side
    assert r["public_bytes_delta"] > 0
    # before the failure, nothing rode the public LANs
    assert r["before"]["rerouted"] == 0
    assert r["before"]["bytes_public"] == 0
    # no deliveries were lost to the failover itself
    assert r["delta_failed"] == 0


def test_centralised_vs_local():
    """A-local ablation: local agents vs a centralised resident monitor as
    the fleet grows (§3.4: "centralised management methodologies have been
    proven unsuccessful in big complex environments").

    Shape asserted: the central console's cost grows linearly with the
    fleet and saturates a 2002-class console box around the paper's fleet
    size, while the agent coordinators stay near-idle.
    """
    rows = ablations.centralised_comparison(
        fleet_sizes=(10, 50, 100, 200, 400))
    emit(ablations.format_centralised(rows))

    console = [r["console_cpu_pct"] for r in rows]
    admin = [r["admin_cpu_pct"] for r in rows]
    fleets = [r["fleet"] for r in rows]

    # both grow with fleet size, but at wildly different slopes
    assert console == sorted(console)
    assert admin == sorted(admin)
    slope_console = (console[-1] - console[0]) / (fleets[-1] - fleets[0])
    slope_admin = (admin[-1] - admin[0]) / (fleets[-1] - fleets[0])
    assert slope_console > 50 * slope_admin

    # at the paper's ~200-server scale the console is already eating
    # most of a CPU, the coordinators a rounding error
    at200 = next(r for r in rows if r["fleet"] == 200)
    assert at200["console_cpu_pct"] > 25.0
    assert at200["admin_cpu_pct"] < 1.0

    # memory tells the same story
    assert at200["console_mem_mb"] > 20 * at200["admin_mem_mb"]
