"""Unit tests for syslog."""

import pytest

from repro.cluster.syslog import Syslog


@pytest.fixture
def log():
    return Syslog()


def test_log_and_tail(log):
    log.info(1.0, "oracle", "started")
    log.error(2.0, "oracle", "ORA-00600 internal error")
    recs = list(log.records)
    assert len(recs) == 2
    assert recs[-1].severity == "err"


def test_unknown_severity_rejected(log):
    with pytest.raises(ValueError):
        log.log(0.0, "daemon", "catastrophic", "x", "boom")


def test_grep_by_tag_severity_and_time(log):
    log.info(1.0, "httpd", "hello")
    log.warning(2.0, "oracle", "slow checkpoint")
    log.error(3.0, "oracle", "crash")
    assert len(log.grep(tag="oracle")) == 2
    assert len(log.grep(tag="oracle", min_severity="err")) == 1
    assert len(log.grep(since=2.5)) == 1
    assert len(log.grep(contains="checkpoint")) == 1


def test_errors_since(log):
    log.error(1.0, "a", "x")
    log.error(5.0, "a", "y")
    assert len(log.grep(min_severity="err", since=2.0)) == 1


def test_bounded_history(monkeypatch):
    monkeypatch.setattr(Syslog, "MAXLEN", 5)
    log = Syslog()
    tapped = []
    log.subscribe(tapped.append)
    for i in range(10):
        log.info(float(i), "t", f"m{i}")
    assert len(log.records) == 5
    # the bound is the ring's: every record still reaches the taps
    assert [r.message for r in tapped] == [f"m{i}" for i in range(10)]
    assert log.records[0].message == "m5"


def test_severity_hierarchy(log):
    log.log(1.0, "kern", "crit", "kernel", "panic-ish")
    # crit is *more* severe than err, so min_severity="err" includes it
    assert len(log.grep(min_severity="err")) == 1
    assert len(log.grep(min_severity="crit")) == 1
