"""Figure 3 bench: CPU utilisation of monitoring, BMC Patrol vs
intelliagents, 8 half-hour samples on a loaded database server.

Paper: BMC 0.17-1.1 % (mean 0.46 %), intelliagents 0.042-0.047 %
(mean 0.045 %) -- roughly a 10x gap.  Shape asserted: agents in the
right band, BMC above them by ~an order of magnitude, agent series
nearly flat while BMC's swings with load.
"""

from conftest import emit

from repro.experiments import overhead


def test_fig3_cpu():
    r = overhead.run(seed=20)
    emit(overhead.format_cpu(r))

    # the agent series sits in the paper's band and is nearly flat
    assert all(0.02 <= v <= 0.09 for v in r.agent_cpu)
    assert max(r.agent_cpu) - min(r.agent_cpu) < 0.02

    # BMC lands in a plausible band and swings with load
    assert all(0.1 <= v <= 2.5 for v in r.bmc_cpu)
    assert max(r.bmc_cpu) > 1.3 * min(r.bmc_cpu)

    # the gap: order of magnitude (paper: 10.2x)
    assert 4.0 < r.mean_ratio_cpu() < 40.0
