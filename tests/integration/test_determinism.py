"""End-to-end determinism: same seed, same bytes.

The experiments promise that (a) a seed fully determines a run and
(b) the process-pool replication path is indistinguishable from the
serial one.  Both are load-bearing -- the paper comparison is only
paired if the two pipelines and the two execution modes see identical
draws -- so this test byte-compares summary dicts rather than eyeball
statistics.
"""

import json

from repro.experiments import fig2, relocation, userqos
from repro.sim.calendar import DAY

HORIZON = 45 * DAY


def canon(d) -> str:
    return json.dumps(d, sort_keys=True)


def test_userqos_same_seed_byte_identical():
    a = userqos.run_once(7, horizon=HORIZON, population=100_000)
    b = userqos.run_once(7, horizon=HORIZON, population=100_000)
    assert canon(a) == canon(b)
    c = userqos.run_once(8, horizon=HORIZON, population=100_000)
    assert canon(a) != canon(c)


def test_fig2_same_seed_byte_identical():
    a = fig2.run_once(7, horizon=HORIZON)
    assert canon(a) == canon(fig2.run_once(7, horizon=HORIZON))
    assert canon(a) != canon(fig2.run_once(9, horizon=HORIZON))


def test_relocation_same_seed_byte_identical():
    a = relocation.run_once(7, horizon=HORIZON, population=100_000)
    b = relocation.run_once(7, horizon=HORIZON, population=100_000)
    assert canon(a) == canon(b)
    c = relocation.run_once(8, horizon=HORIZON, population=100_000)
    assert canon(a) != canon(c)


def test_relocation_serial_and_parallel_replication_agree():
    serial = relocation.run_replicated(1, replications=3, horizon=HORIZON,
                                       population=100_000, processes=1)
    pooled = relocation.run_replicated(1, replications=3, horizon=HORIZON,
                                       population=100_000, processes=2)
    assert canon(serial) == canon(pooled)


def test_userqos_serial_and_parallel_replication_agree():
    serial = userqos.run_replicated(1, replications=3, horizon=HORIZON,
                                    population=100_000, processes=1)
    pooled = userqos.run_replicated(1, replications=3, horizon=HORIZON,
                                    population=100_000, processes=2)
    assert canon(serial) == canon(pooled)


def test_fig2_serial_and_parallel_replication_agree():
    serial = fig2.run_replicated(1, replications=2, horizon=HORIZON,
                                 processes=1)
    pooled = fig2.run_replicated(1, replications=2, horizon=HORIZON,
                                 processes=2)
    assert canon(serial) == canon(pooled)
