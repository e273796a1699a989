"""End-to-end determinism: same seed, same bytes.

The experiments promise that (a) a seed fully determines a run and
(b) the process-pool replication path is indistinguishable from the
serial one.  Both are load-bearing -- the paper comparison is only
paired if the two pipelines and the two execution modes see identical
draws -- so this test byte-compares summary dicts rather than eyeball
statistics.
"""

import json

import pytest

from repro import parallel
from repro.experiments import fig2, relocation, userqos
from repro.sim.calendar import DAY

HORIZON = 45 * DAY


pytestmark = pytest.mark.usefixtures("short_campaigns_module")


def canon(d) -> str:
    return json.dumps(d, sort_keys=True)


def serial_and_pooled(monkeypatch, run_replicated, **kw):
    """``run_replicated(1, **kw)`` on one worker, then on a pool of
    two."""
    monkeypatch.setattr(parallel, "default_workers", lambda: 1)
    serial = run_replicated(1, **kw)
    monkeypatch.setattr(parallel, "default_workers", lambda: 2)
    return serial, run_replicated(1, **kw)


def test_userqos_same_seed_byte_identical():
    a = userqos.run_once(7, population=100_000)
    b = userqos.run_once(7, population=100_000)
    assert canon(a) == canon(b)
    c = userqos.run_once(8, population=100_000)
    assert canon(a) != canon(c)


def test_fig2_same_seed_byte_identical():
    a = fig2.run_once(7)
    assert canon(a) == canon(fig2.run_once(7))
    assert canon(a) != canon(fig2.run_once(9))


def test_relocation_same_seed_byte_identical():
    a = relocation.run_once(7, population=100_000)
    b = relocation.run_once(7, population=100_000)
    assert canon(a) == canon(b)
    c = relocation.run_once(8, population=100_000)
    assert canon(a) != canon(c)


def test_relocation_serial_and_parallel_replication_agree(monkeypatch):
    serial, pooled = serial_and_pooled(monkeypatch, relocation.run_replicated,
                                       replications=3, population=100_000)
    assert canon(serial) == canon(pooled)


def test_userqos_serial_and_parallel_replication_agree(monkeypatch):
    serial, pooled = serial_and_pooled(monkeypatch, userqos.run_replicated,
                                       replications=3, population=100_000)
    assert canon(serial) == canon(pooled)


def test_fig2_serial_and_parallel_replication_agree(monkeypatch):
    serial, pooled = serial_and_pooled(monkeypatch, fig2.run_replicated,
                                       replications=2)
    assert canon(serial) == canon(pooled)
