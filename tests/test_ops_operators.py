"""Unit tests for the operator coverage model."""

import numpy as np
import pytest

from repro.faults.models import CATEGORY_PROFILES, Category
from repro.ops.operators import OperatorModel
from repro.sim import RandomStreams
from repro.sim.calendar import DAY, HOUR, MINUTE


@pytest.fixture
def ops(rs):
    return OperatorModel(rs.get("ops"))


TUESDAY_10AM = DAY + 10 * HOUR
TUESDAY_2AM = DAY + 2 * HOUR
SATURDAY_NOON = 5 * DAY + 12 * HOUR


def _mean_detection(ops, t, n=3000, scale=1.0):
    return np.mean([ops.manual_detection_delay(t, scale)
                    for _ in range(n)])


def test_manual_detection_means_by_period(ops):
    day = _mean_detection(ops, TUESDAY_10AM)
    night = _mean_detection(ops, TUESDAY_2AM)
    weekend = _mean_detection(ops, SATURDAY_NOON)
    # the paper's 1 h / 10 h / 25 h
    assert abs(day - 1 * HOUR) < 0.15 * HOUR
    assert abs(night - 10 * HOUR) < 1.0 * HOUR
    assert abs(weekend - 25 * HOUR) < 2.5 * HOUR


def test_detection_scale_shrinks_delay(ops):
    full = _mean_detection(ops, TUESDAY_2AM, scale=1.0)
    vis = _mean_detection(ops, TUESDAY_2AM, scale=0.2)
    assert vis < full / 3


def test_detection_floor_five_minutes(ops):
    vals = [ops.manual_detection_delay(TUESDAY_10AM, scale=0.001)
            for _ in range(100)]
    assert min(vals) >= 5 * MINUTE


def test_agent_detection_bounded_by_grid(ops):
    for t in np.linspace(0, DAY, 97):
        d = ops.agent_detection_delay(float(t))
        assert 0 < d <= 5 * MINUTE + 20.0


def test_agent_detection_respects_period(rs):
    slow = OperatorModel(rs.get("slow"), agent_period=HOUR)
    vals = [slow.agent_detection_delay(float(t))
            for t in np.linspace(0, DAY, 50)]
    assert max(vals) > 30 * MINUTE


def test_night_tax_slows_manual_repair(ops):
    prof = CATEGORY_PROFILES[Category.MID_CRASH]
    day = np.mean([ops.manual_repair_time(prof, TUESDAY_10AM)[0]
                   for _ in range(2000)])
    night = np.mean([ops.manual_repair_time(prof, TUESDAY_2AM)[0]
                     for _ in range(2000)])
    assert night > day * 1.3


def test_pinpointing_shrinks_diagnosis(ops):
    prof = CATEGORY_PROFILES[Category.MID_CRASH]   # pinpoint_factor 0.25
    plain = np.mean([ops.manual_repair_time(prof, TUESDAY_10AM)[0]
                     for _ in range(2000)])
    helped = np.mean([ops.manual_repair_time(prof, TUESDAY_10AM,
                                             pinpointed=True)[0]
                      for _ in range(2000)])
    assert helped < plain


def test_escalation_rate_matches_profile(ops):
    prof = CATEGORY_PROFILES[Category.COMPLETELY_DOWN]  # 0.6 first-fix
    esc = [ops.manual_repair_time(prof, TUESDAY_10AM)[1]
           for _ in range(2000)]
    assert abs(np.mean(esc) - 0.4) < 0.05


def test_resolve_agent_auto_path_is_fast(ops):
    prof = CATEGORY_PROFILES[Category.LSF]
    rs = [ops.resolve_agent(prof, TUESDAY_2AM) for _ in range(300)]
    autos = [r for r in rs if r.auto]
    assert len(autos) > 200
    assert np.mean([r.detection + r.repair for r in autos]) < 30 * MINUTE


def test_resolve_agent_unfixable_falls_to_human(ops):
    prof = CATEGORY_PROFILES[Category.HARDWARE]
    rs = [ops.resolve_agent(prof, TUESDAY_10AM) for _ in range(100)]
    assert all(not r.auto for r in rs)
    assert all(r.detection < 6 * MINUTE for r in rs)
    assert np.mean([r.repair for r in rs]) > 30 * MINUTE


def test_prevented_faults_cost_nothing(ops):
    prof = CATEGORY_PROFILES[Category.HUMAN]
    rs = [ops.resolve_agent(prof, TUESDAY_10AM) for _ in range(500)]
    prevented = [r for r in rs if r.prevented]
    assert abs(len(prevented) / 500 - prof.prevention_prob) < 0.1


def test_resolve_manual_uses_category_visibility(rs):
    ops = OperatorModel(rs.get("vis"))
    vis_prof = CATEGORY_PROFILES[Category.FRONT_END]      # scale 0.3
    latent_prof = CATEGORY_PROFILES[Category.MID_CRASH]   # scale 1.0
    vis = np.mean([ops.resolve_manual(vis_prof, TUESDAY_2AM).detection
                   for _ in range(2000)])
    latent = np.mean([ops.resolve_manual(latent_prof,
                                         TUESDAY_2AM).detection
                      for _ in range(2000)])
    assert vis < latent / 2
