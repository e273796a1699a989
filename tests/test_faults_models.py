"""Unit tests for the fault taxonomy."""

import numpy as np

from repro.faults.models import (CATEGORY_PROFILES, Category, Dist,
                                 FaultEvent, PAPER_FIG2_HOURS)


def test_every_category_has_a_profile_and_paper_value():
    for cat in Category:
        assert cat in CATEGORY_PROFILES
        assert cat in PAPER_FIG2_HOURS


def test_paper_totals():
    before = sum(v[0] for v in PAPER_FIG2_HOURS.values())
    after = sum(v[1] for v in PAPER_FIG2_HOURS.values())
    assert before == 550.0
    # NOTE: the paper states "downtime went down to 31 hours in total"
    # but its own per-category after-values (8+6+2+9+1+3+2+8) sum to 39.
    # We keep the per-category numbers as ground truth; EXPERIMENTS.md
    # records the discrepancy.
    assert after == 39.0


def test_agent_limits_encoded():
    """§4: agents cannot fix firewall/network or hardware faults."""
    assert not CATEGORY_PROFILES[Category.FIREWALL_NETWORK].auto_fixable
    assert not CATEGORY_PROFILES[Category.HARDWARE].auto_fixable
    assert CATEGORY_PROFILES[Category.MID_CRASH].auto_fixable
    # pinpointing does not help where the paper says it cannot
    assert CATEGORY_PROFILES[Category.FIREWALL_NETWORK].pinpoint_factor == 1.0


def test_human_errors_partially_prevented():
    prof = CATEGORY_PROFILES[Category.HUMAN]
    assert 0.0 < prof.prevention_prob < 1.0


def test_dist_mean_is_calibrated():
    rng = np.random.default_rng(0)
    d = Dist(mean=3600.0, sigma=0.6)
    samples = np.array([d.sample(rng) for _ in range(20000)])
    assert abs(np.mean(samples) - 3600.0) / 3600.0 < 0.05
    assert (samples > 0).all()


def test_fault_event_accounting():
    ev = FaultEvent(Category.MID_CRASH, "db-crash", time=100.0,
                    target="db01/ora")
    assert ev.detected_at is None and ev.repaired_at is None
    assert not ev.prevented
    prevented = FaultEvent(Category.HUMAN, "x", 0.0, prevented=True)
    assert prevented.prevented


def test_overnight_categories_are_the_batch_ones():
    from repro.faults.models import TimePattern
    assert (CATEGORY_PROFILES[Category.MID_CRASH].time_pattern
            is TimePattern.OVERNIGHT)
    assert (CATEGORY_PROFILES[Category.HUMAN].time_pattern
            is TimePattern.BUSINESS)
