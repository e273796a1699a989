"""Unit tests for the delta-debugging shrinker.

These use synthetic predicates over the scenario structure (no
episodes are executed), so they pin down the reduction algorithm
itself: minimality, violation preservation, determinism, memoisation.
The end-to-end shrink against a real planted bug lives in
``test_chaos_fuzzer.py``.
"""

import pytest

from repro.chaos.scenario import ChaosEvent, Scenario
from repro.chaos.shrink import SETTLE, shrink


def _scenario(n_events: int = 8, horizon: float = 4 * 3600.0) -> Scenario:
    events = [ChaosEvent(400.0 + 137.0 * i,
                         "db-crash" if i == 3 else "app-crash",
                         "db[0]" if i == 3 else f"fe[{i}]")
              for i in range(n_events)]
    return Scenario(name="syn", events=events, horizon=horizon)


def _has_db_crash(sc: Scenario) -> bool:
    return any(e.op == "db-crash" for e in sc.events)


def test_shrinks_to_single_culprit_event():
    res = shrink(_scenario(), _has_db_crash)
    assert len(res.shrunk.events) == 1
    assert res.shrunk.events[0].op == "db-crash"
    assert len(res.original.events) - len(res.shrunk.events) == 7
    assert _has_db_crash(res.shrunk)


def test_keeps_conjunction_of_two_events():
    def needs_pair(sc):
        ops = [e.op for e in sc.events]
        return "db-crash" in ops and "app-crash" in ops
    res = shrink(_scenario(), needs_pair)
    assert len(res.shrunk.events) == 2
    assert needs_pair(res.shrunk)


def test_raises_on_non_violating_input():
    with pytest.raises(ValueError, match="does not violate"):
        shrink(_scenario(), lambda sc: False)


def test_deterministic_byte_identical():
    a = shrink(_scenario(), _has_db_crash)
    b = shrink(_scenario(), _has_db_crash)
    assert a.shrunk.to_json() == b.shrunk.to_json()
    assert a.tested == b.tested and a.rounds == b.rounds


def test_times_snap_to_grid_when_allowed():
    res = shrink(_scenario(), _has_db_crash)
    ev = res.shrunk.events[0]
    assert ev.time % 300.0 == 0.0


def test_horizon_shrinks_toward_last_event():
    res = shrink(_scenario(horizon=12 * 3600.0), _has_db_crash)
    last = res.shrunk.events[-1].time
    assert res.shrunk.horizon <= last + SETTLE + 1.0


def test_time_preserving_predicate_keeps_original_time():
    # the culprit's exact (off-grid) time matters -> no snapping
    def at_exact_time(sc):
        return any(e.op == "db-crash" and e.time == 811.0
                   for e in sc.events)
    res = shrink(_scenario(), at_exact_time)
    assert res.shrunk.events[0].time == 811.0


def test_memoisation_counts_only_unique_candidates():
    calls = []
    def counting(sc):
        calls.append(sc.to_json())
        return _has_db_crash(sc)
    res = shrink(_scenario(), counting)
    assert res.tested == len(calls) == len(set(calls))


def test_shrunk_name_and_notes_reference_origin():
    res = shrink(_scenario(), _has_db_crash)
    assert res.shrunk.name == "syn-min"
    assert "shrunk from syn#" in res.shrunk.notes
