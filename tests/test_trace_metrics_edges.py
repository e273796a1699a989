"""Edge-case hardening for the trace metrics: every in-range quantile
of a histogram has a defined value (the alerting tier probes extremes
on freshly-created metrics, so none may raise)."""

import pytest

from repro.trace.metrics import Histogram

#: bucket upper bounds, seconds: sub-second work up to multi-hour repairs
BUCKETS = (0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 14400.0)


@pytest.fixture
def hist():
    return Histogram("lat", BUCKETS)


def test_empty_histogram_quantiles_are_zero(hist):
    for q in (0.0, 0.25, 0.5, 1.0):
        assert hist.quantile(q) == 0.0
    assert hist.count == 0


def test_quantile_range_validated(hist):
    hist.observe_n(5.0, 1)
    for q in (-0.1, 1.1):
        with pytest.raises(ValueError):
            hist.quantile(q)


def test_q0_and_q1_bracket_the_occupied_buckets(hist):
    hist.observe_n(5.0, 1)                    # lands in the (1, 10] bucket
    assert hist.quantile(0.0) == 1.0
    assert hist.quantile(1.0) == 10.0


def test_q0_first_bucket_has_no_lower_bound(hist):
    hist.observe_n(0.05, 1)
    assert hist.quantile(0.0) == 0.0
    assert hist.quantile(1.0) == BUCKETS[0]


def test_overflow_bucket_reports_its_lower_bound(hist):
    hist.observe_n(1e6, 1)
    assert hist.quantile(0.0) == BUCKETS[-1]
    assert hist.quantile(0.5) == BUCKETS[-1]
    assert hist.quantile(1.0) == BUCKETS[-1]


def test_mid_quantiles_interpolate(hist):
    for _ in range(10):
        hist.observe_n(5.0, 1)                # all in (1, 10]
    assert hist.quantile(0.5) == pytest.approx(1.0 + 0.5 * 9.0)
    assert 1.0 < hist.quantile(0.1) < hist.quantile(0.9) <= 10.0


def test_quantiles_monotone_across_buckets(hist):
    for v in (0.05, 0.5, 5.0, 50.0, 500.0):
        hist.observe_n(v, 1)
    qs = [hist.quantile(q / 10.0) for q in range(11)]
    assert qs == sorted(qs)
    assert qs[0] == 0.0 and qs[-1] == 1800.0


def test_observe_n_matches_repeated_observe(hist):
    other = Histogram("lat2", BUCKETS)
    hist.observe_n(5.0, 7)
    for _ in range(7):
        other.observe_n(5.0, 1)
    assert hist.counts == other.counts
    assert hist.quantile(0.5) == other.quantile(0.5)
    hist.observe_n(1.0, 0)               # no-op
    assert hist.count == 7
