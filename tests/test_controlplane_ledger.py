"""Unit tests for the condition ledger and the deadline wheel."""

import pytest

from repro.controlplane import Condition, ConditionLedger, DeadlineWheel


# -- the ledger ---------------------------------------------------------------

def test_versions_are_monotonic_and_typed():
    led = ConditionLedger()
    a = led.append("flag", "db01", agent="osnet", status="ok", time=10.0)
    b = led.append("host", "fe01", status="down", detail="panic")
    assert (a.version, b.version) == (1, 2)
    assert led.version == 2
    with pytest.raises(ValueError):
        led.append("gossip", "db01")


def test_cursor_sees_only_newer_entries():
    led = ConditionLedger()
    led.append("flag", "db01", agent="osnet", status="ok")
    cur = led.subscribe("late-joiner")
    fresh, overrun = cur.poll()
    assert fresh == [] and not overrun          # starts at current version
    led.append("flag", "db01", agent="osnet", status="fault")
    led.append("dlsp", "fe01")
    fresh, overrun = cur.poll()
    assert [(c.kind, c.version) for c in fresh] == [("flag", 2), ("dlsp", 3)]
    assert not overrun
    assert cur.poll() == ([], False)            # nothing new twice in a row


def test_eager_trim_to_slowest_cursor():
    led = ConditionLedger()
    fast = led.subscribe("fast")
    slow = led.subscribe("slow")
    for i in range(10):
        led.append("flag", f"h{i}")
    fast.poll()
    assert len(led._entries) == 10              # slow has not consumed
    slow.poll()
    fast.poll()                                 # any poll after both: trim
    assert len(led._entries) == 0
    assert led.floor == led.version


def test_overrun_after_force_trim():
    led = ConditionLedger()
    led.maxlen = 8
    lagger = led.subscribe("lagger")
    for i in range(9):                          # blows the 8-entry cap
        led.append("flag", f"h{i}")
    fresh, overrun = lagger.poll()
    assert overrun
    assert lagger.overruns == 1
    # what IS retained still arrives
    assert [c.host for c in fresh] == [f"h{i}" for i in range(4, 9)]
    # recovered: next poll is clean
    led.append("flag", "h9")
    fresh, overrun = lagger.poll()
    assert not overrun and [c.host for c in fresh] == ["h9"]


def test_push_listeners_fire_synchronously_and_safely():
    led = ConditionLedger()
    seen = []
    led.on_append(seen.append)
    led.on_append(lambda c: 1 / 0)              # broken listener
    cond = led.append("route", "db01", agent="ora", status="drain")
    assert seen == [cond]
    assert led.push_errors == 1                 # producer survived


# -- the deadline wheel -------------------------------------------------------

def test_wheel_basic_due():
    wheel = DeadlineWheel()
    wheel.set_deadline("a", 100.0)
    wheel.set_deadline("b", 200.0)
    assert wheel.due(50.0) == set()
    assert wheel.due(100.0) == {"a"}            # at the deadline is due
    assert wheel.due(250.0) == {"a", "b"}


def test_rearm_rescues_a_due_key():
    wheel = DeadlineWheel()
    wheel.set_deadline("a", 100.0)
    assert wheel.due(150.0) == {"a"}
    wheel.set_deadline("a", 400.0)              # the agent flagged again
    assert wheel.due(150.0) == set()
    assert wheel.due(400.0) == {"a"}


def test_stale_heap_entries_are_lazily_dropped():
    wheel = DeadlineWheel()
    for t in (10.0, 20.0, 30.0):
        wheel.set_deadline("a", t)              # three pushes, one key
    assert wheel.due(15.0) == set()             # 10.0 entry is stale
    assert wheel.due(30.0) == {"a"}
    assert len(wheel._deadline) == 1


def test_due_set_is_sticky_until_rearmed():
    """A stale agent stays stale across sweeps until it flags again --
    exactly the full-scan semantics."""
    wheel = DeadlineWheel()
    wheel.set_deadline(("db01", "osnet"), 100.0)
    assert wheel.due(150.0) == {("db01", "osnet")}
    assert wheel.due(9_999.0) == {("db01", "osnet")}
    wheel.set_deadline(("db01", "osnet"), 10_500.0)
    assert wheel.due(10_000.0) == set()
