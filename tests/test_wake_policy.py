"""Unit tests for the per-agent adaptive wake controller."""

import pytest

from repro.wake import WakePolicy


def test_fixed_mode_never_moves():
    p = WakePolicy(300.0, mode="fixed")
    assert not p.note_clean()
    p.note_findings()
    p.note_trigger()
    assert p.current_period == 300.0
    assert not p.note_clean()       # still no back-off after either


def test_adaptive_backs_off_multiplicatively_to_cap():
    p = WakePolicy(300.0, mode="adaptive")
    seen, moved = [], []
    for _ in range(6):
        moved.append(p.note_clean())
        seen.append(p.current_period)
    assert seen == [600.0, 1200.0, 1800.0, 1800.0, 1800.0, 1800.0]
    assert moved == [True] * 3 + [False] * 3    # the capped no-ops


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


def test_note_clean_reports_whether_period_changed(monkeypatch):
    monkeypatch.setattr(WakePolicy, "max_period", 600.0)
    p = WakePolicy(300.0, mode="adaptive")
    assert p.note_clean()           # 300 -> 600
    assert not p.note_clean()       # already capped


def test_validation():
    with pytest.raises(ValueError):
        WakePolicy(300.0, mode="lunar")
    with pytest.raises(ValueError):
        WakePolicy(0.0)
    with pytest.raises(ValueError):
        WakePolicy(2 * WakePolicy.max_period)
