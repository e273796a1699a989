"""Figure 4 bench: memory consumed by monitoring, BMC Patrol vs
intelliagents, same host and samples as Figure 3.

Paper: BMC 32-58 MB (a resident daemon with a growing history cache),
intelliagents a flat 1.6 MB (cron-run, not memory resident) -- a ~28x
gap.  Shape asserted: BMC tens of MB and varying, agents ~single MB
and perfectly flat.
"""

from conftest import emit

from repro.experiments import overhead


def test_fig4_memory():
    r = overhead.run(seed=21)
    emit(overhead.format_memory(r))

    # agents: small and flat (the paper's 1.6 MB line)
    assert all(0.5 <= v <= 3.0 for v in r.agent_mem)
    assert max(r.agent_mem) == min(r.agent_mem)

    # BMC: tens of MB, moving with cache growth and entity churn
    assert all(25.0 <= v <= 80.0 for v in r.bmc_mem)
    assert max(r.bmc_mem) > min(r.bmc_mem) + 2.0

    # the gap (paper: ~28x)
    assert 10.0 < r.mean_ratio_mem() < 60.0
