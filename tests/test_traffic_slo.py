"""Unit tests for SLI/SLO accounting and the request-weighted join."""

import pytest

from repro.sim.calendar import DAY, HOUR, YEAR
from repro.trace.metrics import Histogram
from repro.traffic.slo import IncidentWindow, Sli, join_demand
from repro.traffic.workload import financial_curve


# -- Sli ----------------------------------------------------------------------


def test_sli_availability_math():
    sli = Sli("web")
    assert sli.availability == 1.0        # idle service has failed no one
    sli.record_batch(90, 10, 12.0)
    assert sli.attempted == 100
    assert sli.availability == pytest.approx(0.9)
    sli.record_shed(100)
    assert sli.attempted == 200
    assert sli.failed == 110
    assert sli.availability == pytest.approx(0.45)
    assert sli.shed == 100 and sli.served == 90


def test_sli_latency_quantiles_weighted():
    sli = Sli("web")
    sli.record_batch(1000, 0, 8.0)        # bucket <=10ms
    sli.record_batch(10, 0, 700.0)        # bucket <=1000ms
    assert sli.latency_quantile(0.5) <= 10.0
    assert sli.latency_quantile(0.999) > 100.0


def test_histogram_observe_n_and_count_at_or_below():
    h = Histogram("h", (1.0, 2.0, 4.0))
    h.observe_n(1.5, 10)
    h.observe_n(3.0, 5)
    h.observe_n(100.0, 2)                 # overflow bucket
    assert h.count == 17
    assert h.counts == [0, 10, 5, 2]
    assert h.quantile(1.0) == 4.0         # overflow clamps to top bound


def test_histogram_quantile_interpolates():
    h = Histogram("h", (10.0, 20.0))
    assert h.quantile(0.5) == 0.0         # empty
    h.observe_n(5.0, 100)                 # all in the first bucket
    q = h.quantile(0.5)
    assert 0.0 < q <= 10.0


# -- join_demand --------------------------------------------------------------


@pytest.fixture(scope="module")
def curve():
    return financial_curve(population=1_000_000)


def test_join_no_windows_is_perfect(curve):
    out = join_demand(curve, [], horizon=7 * DAY)
    assert out.availability == 1.0
    assert out.total_failed == 0.0
    assert out.user_minutes_lost == 0.0
    assert out.total_attempted > 0


def test_join_peak_incident_costs_more_than_overnight(curve):
    def one(start):
        w = IncidentWindow(start=start, duration=HOUR,
                           impact={"web": 1.0, "frontend": 1.0, "db": 1.0})
        return join_demand(curve, [w], horizon=7 * DAY)

    peak = one(DAY + 11 * HOUR)       # Tuesday 11:00
    night = one(DAY + 3 * HOUR)       # Tuesday 03:00
    assert peak.total_failed > 5 * night.total_failed
    assert peak.user_minutes_lost > 5 * night.user_minutes_lost
    assert peak.user_minutes["day"] > 0 and peak.user_minutes["overnight"] == 0
    assert night.user_minutes["overnight"] > 0 and night.user_minutes["day"] == 0


def test_join_impact_scoped_to_class(curve):
    w = IncidentWindow(start=DAY + 11 * HOUR, duration=HOUR,
                       impact={"db": 0.5})
    out = join_demand(curve, [w], horizon=2 * DAY)
    assert out.failed["db"] > 0
    assert out.failed["web"] == 0.0
    assert out.availability_of("web") == 1.0
    assert out.availability_of("db") < 1.0


def test_join_overlapping_incidents_saturate(curve):
    """Two full outages over the same window cannot fail more than
    100% of the demand."""
    w = IncidentWindow(start=DAY + 11 * HOUR, duration=HOUR,
                       impact={"web": 1.0})
    single = join_demand(curve, [w], horizon=2 * DAY)
    double = join_demand(curve, [w, w], horizon=2 * DAY)
    assert double.failed["web"] == pytest.approx(single.failed["web"])


def test_join_scale_and_clipping(curve):
    base = IncidentWindow(start=DAY + 11 * HOUR, duration=HOUR,
                          impact={"web": 0.4})
    half = IncidentWindow(start=DAY + 11 * HOUR, duration=HOUR,
                          impact={"web": 0.4}, scale=0.5)
    a = join_demand(curve, [base], horizon=2 * DAY)
    b = join_demand(curve, [half], horizon=2 * DAY)
    assert b.failed["web"] == pytest.approx(a.failed["web"] / 2)
    # windows past the horizon contribute nothing
    late = IncidentWindow(start=3 * DAY, duration=HOUR, impact={"web": 1.0})
    c = join_demand(curve, [late], horizon=2 * DAY)
    assert c.total_failed == 0.0


def test_join_year_scale_is_fast(curve):
    """A year-long join must stay O(intervals): it runs in well under a
    second even at 1M users (smoke guard for the vectorised path)."""
    import time
    w = IncidentWindow(start=DAY + 11 * HOUR, duration=HOUR,
                       impact={"web": 1.0})
    t0 = time.perf_counter()
    out = join_demand(curve, [w] * 50, horizon=YEAR)
    assert time.perf_counter() - t0 < 5.0
    assert out.total_attempted > 1e9
