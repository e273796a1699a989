"""Property-based tests for circular logs and the downtime ledger."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.filesystem import FileSystem
from repro.faults.models import Category
from repro.metrics.circular_log import CircularLog
from repro.ops.downtime import DowntimeLedger
from tests.test_metrics_circular_log import rewrite_append

lines = st.text(alphabet=st.characters(min_codepoint=32,
                                       max_codepoint=126), max_size=30)


@given(st.lists(lines, max_size=120),
       st.integers(min_value=1, max_value=20))
@settings(max_examples=150, deadline=None)
def test_circular_log_keeps_exactly_the_tail(entries, maxlen):
    fs, ref = FileSystem(), FileSystem()
    log = CircularLog(fs, "/logs/x", maxlen=maxlen)
    CircularLog(ref, "/logs/x", maxlen=maxlen)
    for i, e in enumerate(entries):
        log.append(e, now=float(i))
        rewrite_append(ref, "/logs/x", e, maxlen, now=float(i))
    assert fs.read(log.path) == entries[-maxlen:]
    assert len(fs.read(log.path)) <= maxlen
    # the in-place head drop leaves the bytes, mtime and mount
    # accounting the rewrite-from-tail reference leaves
    assert fs.snapshot_state() == ref.snapshot_state()


@given(st.lists(lines, min_size=1, max_size=200),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_circular_log_disk_usage_bounded(entries, maxlen):
    fs = FileSystem()
    log = CircularLog(fs, "/logs/x", maxlen=maxlen)
    for e in entries:
        log.append(e)
    worst_line = max((len(e) for e in entries), default=0) + 1
    assert fs.mounts["/logs"].used_bytes <= maxlen * worst_line


@given(st.lists(st.tuples(
    st.sampled_from(list(Category)),
    st.floats(min_value=0, max_value=1e7, allow_nan=False),
    st.floats(min_value=0, max_value=1e5, allow_nan=False)),
    max_size=50))
@settings(max_examples=150, deadline=None)
def test_ledger_total_is_sum_of_categories(incidents):
    ledger = DowntimeLedger()
    for i, (cat, start, dur) in enumerate(incidents):
        ledger.open_incident(cat, f"t{i}", start)
        ledger.close_incident(f"t{i}", start + dur)
    by_cat = ledger.hours_by_category()
    assert abs(ledger.total_hours() - sum(by_cat.values())) < 1e-6
    expected = sum(d for _, _, d in incidents) / 3600.0
    assert abs(ledger.total_hours() - expected) < 1e-6
