"""Unit tests for the named random streams."""

import numpy as np

from repro.sim import RandomStreams


def test_same_name_same_generator():
    rs = RandomStreams(7)
    assert rs.get("x") is rs.get("x")


def test_same_seed_reproduces():
    a = RandomStreams(7).get("faults.db").integers(1 << 40, size=5)
    b = RandomStreams(7).get("faults.db").integers(1 << 40, size=5)
    assert (a == b).all()


def test_different_seeds_differ():
    a = RandomStreams(7).get("x").integers(1 << 40, size=8)
    b = RandomStreams(8).get("x").integers(1 << 40, size=8)
    assert (a != b).any()


def test_different_names_independent():
    rs = RandomStreams(7)
    a = rs.get("a").integers(1 << 40, size=8)
    b = rs.get("b").integers(1 << 40, size=8)
    assert (a != b).any()


def test_adding_consumer_does_not_perturb_existing():
    rs1 = RandomStreams(7)
    _ = rs1.get("early").random(10)
    v1 = rs1.get("late").random(5)

    rs2 = RandomStreams(7)
    # different consumption order / extra stream in between
    _ = rs2.get("someone-else").random(3)
    v2 = rs2.get("late").random(5)
    assert np.allclose(v1, v2)


# -- explicit state round trips (the persistence layer's prerequisite) --------

def test_getstate_setstate_reproduces_draw_sequence():
    rs = RandomStreams(13)
    rs.get("a").random(100)
    rs.get("b").integers(1000, size=7)
    state = rs.getstate()
    want_a = rs.get("a").random(25).tolist()
    want_b = rs.get("b").integers(1000, size=25).tolist()

    rs2 = RandomStreams(13)
    rs2.setstate(state)
    assert rs2.get("a").random(25).tolist() == want_a
    assert rs2.get("b").integers(1000, size=25).tolist() == want_b


def test_setstate_drops_streams_absent_from_snapshot():
    rs = RandomStreams(5)
    rs.get("kept").random(3)
    state = rs.getstate()
    rs.get("extra").random(3)           # materialised after the snapshot
    rs.setstate(state)
    assert set(rs.getstate()["streams"]) == {"kept"}
    # the dropped stream re-derives from the root seed, as if fresh
    fresh = RandomStreams(5).get("extra").random(4).tolist()
    assert rs.get("extra").random(4).tolist() == fresh


def test_setstate_rejects_wrong_seed():
    state = RandomStreams(1).getstate()
    try:
        RandomStreams(2).setstate(state)
    except ValueError:
        pass
    else:
        raise AssertionError("seed mismatch must raise")


def test_getstate_is_json_serialisable():
    import json
    rs = RandomStreams(9)
    rs.get("x").random(11)
    blob = json.dumps(rs.getstate(), sort_keys=True)
    rs2 = RandomStreams(9)
    rs2.setstate(json.loads(blob))
    assert (rs2.get("x").random(5).tolist()
            == rs.get("x").random(5).tolist())
