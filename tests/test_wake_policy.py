"""Unit tests for the per-agent adaptive wake controller."""

import pytest

from repro.wake import WakePolicy


def test_fixed_mode_never_moves():
    p = WakePolicy(300.0, mode="fixed")
    assert not p.note_clean()
    p.note_findings()
    p.note_trigger()
    assert p.current_period == 300.0
    assert p.backoffs == 0


def test_adaptive_backs_off_multiplicatively_to_cap():
    p = WakePolicy(300.0, mode="adaptive", max_period=1800.0)
    seen = []
    for _ in range(6):
        p.note_clean()
        seen.append(p.current_period)
    assert seen == [600.0, 1200.0, 1800.0, 1800.0, 1800.0, 1800.0]
    assert p.backoffs == 3      # the capped no-ops do not count


def test_findings_and_triggers_snap_back_to_base():
    p = WakePolicy(300.0, mode="adaptive")
    for _ in range(4):
        p.note_clean()
    assert p.current_period > 300.0
    p.note_findings()
    assert p.current_period == 300.0
    for _ in range(2):
        p.note_clean()
    p.note_trigger()
    assert p.current_period == 300.0
    assert p.resets == 2
    assert p.triggers == 1


def test_note_clean_reports_whether_period_changed():
    p = WakePolicy(300.0, mode="adaptive", max_period=600.0)
    assert p.note_clean()           # 300 -> 600
    assert not p.note_clean()       # already capped


def test_validation():
    with pytest.raises(ValueError):
        WakePolicy(300.0, mode="lunar")
    with pytest.raises(ValueError):
        WakePolicy(0.0)
    with pytest.raises(ValueError):
        WakePolicy(300.0, max_period=200.0)
