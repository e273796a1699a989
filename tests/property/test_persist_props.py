"""Property: ``restore_state`` after ``snapshot_state`` is the
identity, for every standalone Snapshottable component.

Each test drives a component through a random operation sequence
(hitting the trim and lazy-deletion paths, not just happy appends),
snapshots it, restores into a *fresh* instance, and demands (a) the
re-snapshot is byte-identical under the canonical codec and (b) the
restored object answers queries exactly like the original.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.deadline import DeadlineWheel
from repro.controlplane.ledger import KINDS, ConditionLedger
from repro.faults.models import Category
from repro.metrics.timeseries import TimeSeries
from repro.ops.downtime import DowntimeLedger
from repro.ops.notifications import NotificationChannel
from repro.persist import canonical_json

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
times = st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False)


class _FakeSim:
    def __init__(self):
        self.now = 0.0


def roundtrip(obj, fresh):
    """snapshot -> restore into ``fresh`` -> byte-compare snapshots."""
    snap = canonical_json(obj.snapshot_state())
    fresh.restore_state(obj.snapshot_state())
    assert canonical_json(fresh.snapshot_state()) == snap
    return fresh


@settings(max_examples=50, deadline=None)
@given(samples=st.lists(st.tuples(times, finite), max_size=40),
       maxlen=st.one_of(st.none(), st.integers(1, 8)))
def test_timeseries_roundtrip(samples, maxlen):
    ts = TimeSeries("x", maxlen=maxlen)
    for t, v in sorted(samples, key=lambda s: s[0]):
        ts.append(t, v)
    ts2 = roundtrip(ts, TimeSeries("x"))
    assert len(ts2) == len(ts)
    assert ts2.dropped == ts.dropped
    for t in (0.0, 1.0, 5e8, 2e9):
        assert ts2.value_at(t) == ts.value_at(t)


_key = st.tuples(st.sampled_from(["db01", "tp01", "fe01"]),
                 st.sampled_from(["os", "svc", "hw"]))


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("set"), _key, times),
    st.tuples(st.just("due"), _key, times)), max_size=40))
def test_deadline_wheel_roundtrip(ops):
    wheel = DeadlineWheel()
    for op, key, t in ops:
        if op == "set":
            wheel.set_deadline(key, t)
        else:
            wheel.due(t)
    wheel2 = roundtrip(wheel, DeadlineWheel())
    assert wheel2._deadline == wheel._deadline
    # the rebuilt heap drains in the same order the original would
    assert sorted(wheel2.due(1e12)) == sorted(wheel.due(1e12))


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from(KINDS),
              st.sampled_from(["db01", "tp01"]), times),
    st.tuples(st.just("poll"), st.sampled_from(["a", "b"]),
              st.just(""), st.just(0.0))), max_size=60),
       maxlen=st.integers(2, 16))
def test_condition_ledger_roundtrip(ops, maxlen):
    def build():
        led = ConditionLedger()
        led.maxlen = maxlen
        return led, {"a": led.subscribe("a"), "b": led.subscribe("b")}

    ledger, cursors = build()
    for op, x, host, t in ops:
        if op == "append":
            ledger.append(x, host, time=t)
        else:
            cursors[x].poll()
    fresh, fresh_cursors = build()
    roundtrip(ledger, fresh)
    assert len(fresh._entries) == len(ledger._entries)
    for name in ("a", "b"):
        got, overrun = fresh_cursors[name].poll()
        want, want_overrun = cursors[name].poll()
        assert [c.version for c in got] == [c.version for c in want]
        assert overrun == want_overrun


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(
    st.sampled_from(["open", "close", "detect"]),
    st.sampled_from(["db01/oracle", "fe01/web", "tp01/app"]),
    times), max_size=40))
def test_downtime_ledger_roundtrip(ops):
    ledger = DowntimeLedger()
    now = 0.0
    for op, target, dt in ops:
        now += dt % 3600.0
        if op == "open":
            ledger.open_incident(Category.MID_CRASH, target, now)
        elif op == "close":
            ledger.close_incident(target, now, auto_repaired=True)
        else:
            ledger.mark_detected(target, now)
    ledger2 = roundtrip(ledger, DowntimeLedger())
    assert (ledger2.hours_by_category(as_of=now + 1.0)
            == ledger.hours_by_category(as_of=now + 1.0))
    # open-incident identity survives: closing after restore works
    for target in ("db01/oracle", "fe01/web", "tp01/app"):
        a = ledger.close_incident(target, now + 10.0)
        b = ledger2.close_incident(target, now + 10.0)
        assert (a is None) == (b is None)


@settings(max_examples=50, deadline=None)
@given(sends=st.lists(st.tuples(
    st.sampled_from(["ops", "dba"]),
    st.sampled_from(["db01 down", "fe02 hung", "disk full"]),
    st.floats(min_value=0.0, max_value=900.0,
              allow_nan=False, allow_infinity=False)), max_size=30))
def test_notification_channel_roundtrip(sends):
    chan = NotificationChannel(_FakeSim())
    for recipient, subject, dt in sends:
        chan.sim.now += dt
        chan.email(recipient, subject)
    chan2 = roundtrip(chan, NotificationChannel(_FakeSim()))
    chan2.sim.now = chan.sim.now
    assert chan2.sent == chan.sent
    # the restored ledger keeps appending where the original does
    a = chan.email("ops", "db01 down")
    b = chan2.email("ops", "db01 down")
    assert a == b and chan2.sent == chan.sent