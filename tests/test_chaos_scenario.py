"""Unit tests for the chaos scenario DSL."""

import pytest

from repro.chaos.scenario import (BUILDERS, MAX_EVENTS, MAX_HORIZON,
                                  MIN_HORIZON, OPS, TARGET_POOLS, WORLDS,
                                  ChaosEvent, Scenario, build_corpus,
                                  make_target, parse_target)


def test_parse_target():
    assert parse_target("db[3]") == ("db", 3)
    assert parse_target("dns") == ("dns", 0)
    assert parse_target("tphost[0]") == ("tphost", 0)
    with pytest.raises(ValueError):
        parse_target("db[x]")


def test_make_target_round_trips():
    for pool in TARGET_POOLS:
        sel = make_target(pool, 2)
        got_pool, _idx = parse_target(sel)
        assert got_pool == pool


def test_event_validate_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown op"):
        ChaosEvent(10.0, "frobnicate", "db[0]").validate()


def test_event_validate_rejects_mismatched_pool():
    # db-crash needs a database; tphost[] is a host pool
    with pytest.raises(ValueError, match="needs a database target"):
        ChaosEvent(10.0, "db-crash", "tphost[0]").validate()


def test_event_validate_rejects_negative_time():
    with pytest.raises(ValueError, match="time"):
        ChaosEvent(-1.0, "db-crash", "db[0]").validate()


def test_normalized_sorts_clamps_and_caps():
    events = [ChaosEvent(5000.0, "app-crash", "fe[0]"),
              ChaosEvent(100.0, "db-crash", "db[0]"),
              ChaosEvent(1e9, "cron-death", "dbhost[0]")]
    sc = Scenario(name="x", events=events, horizon=1e12).normalized()
    assert sc.horizon == MAX_HORIZON
    times = [e.time for e in sc.events]
    assert times == sorted(times)
    assert all(t < sc.horizon for t in times)
    sc.validate()


def test_normalized_caps_event_count():
    events = [ChaosEvent(float(i), "app-crash", "fe[0]")
              for i in range(MAX_EVENTS + 20)]
    sc = Scenario(name="x", events=events, horizon=7200.0).normalized()
    assert len(sc.events) == MAX_EVENTS


def test_validate_rejects_tiny_horizon():
    sc = Scenario(name="x", horizon=MIN_HORIZON / 2)
    with pytest.raises(ValueError, match="horizon"):
        sc.validate()


def test_validate_rejects_unsorted_events():
    sc = Scenario(name="x", events=[
        ChaosEvent(500.0, "app-crash", "fe[0]"),
        ChaosEvent(100.0, "db-crash", "db[0]")], horizon=3600.0)
    with pytest.raises(ValueError, match="sorted"):
        sc.validate()


def test_json_round_trip_exact():
    sc = build_corpus(7)["resource-squeeze"]     # has params
    back = Scenario.from_json(sc.to_json())
    assert back.to_dict() == sc.to_dict()
    assert back.scenario_id == sc.scenario_id


def test_scenario_id_tracks_content():
    a = build_corpus(0)["cascade"]
    b = build_corpus(1)["cascade"]               # different site seed
    assert a.scenario_id != b.scenario_id
    assert a.scenario_id.startswith("cascade#")


def test_every_builder_is_valid_and_named():
    corpus = build_corpus(0)
    assert len(corpus) >= 10
    for name, sc in corpus.items():
        assert sc.name == name
        sc.validate()
        for ev in sc.events:
            assert ev.op in OPS


# -- the world a scenario names -------------------------------------------------


def _scoped(target: str, sites: int, op: str = "host-crash") -> Scenario:
    return Scenario(name="scoped", events=[ChaosEvent(600.0, op, target)],
                    horizon=MIN_HORIZON, sites=sites)


def test_worlds_name_the_sites_the_executor_builds():
    from repro.federation import three_site_config
    built = sorted(s.name for s in three_site_config().sites)
    assert list(WORLDS[3]) == built


def test_validate_rejects_a_scope_naming_no_site_of_the_world():
    """``par:`` is not a datacentre of the three-site world; the event
    must not be quietly re-aimed at the home site."""
    with pytest.raises(ValueError, match="names site 'par'"):
        _scoped("par:dbhost[0]", sites=3).validate()
    _scoped("nyc:dbhost[0]", sites=3).validate()


@pytest.mark.parametrize("sites", [0, 2, 4])
def test_validate_rejects_worlds_the_executor_cannot_build(sites):
    with pytest.raises(ValueError, match="sites must be one of"):
        _scoped("dbhost[0]", sites=sites).validate()


def test_unscoped_selector_in_a_federation_means_the_home_site():
    from repro.chaos.executor import run_episode
    ep = run_episode(_scoped("dbhost[0]", sites=3))
    assert ep.applied == ["1000 host-crash dbhost[0]"]
    assert list(ep.books["hkg"].outcomes) == [0]
    assert not ep.books["hkg"].site.dc.group("db")[0].is_up


def test_scope_on_a_single_site_scenario_is_ignored():
    from repro.chaos.executor import run_episode
    ep = run_episode(_scoped("nyc:dbhost[0]", sites=1))
    assert ep.applied == ["1000 host-crash nyc:dbhost[0]"]
    assert not ep.site.dc.group("db")[0].is_up


@pytest.mark.parametrize("op", ["wan-partition", "wan-repair"])
def test_wan_ops_fizzle_on_a_world_with_no_leased_lines(op):
    from repro.chaos.executor import run_episode
    ep = run_episode(_scoped("wan[2]", sites=1, op=op))
    assert not ep.applied
    assert ep.fizzled_kinds == {op}
    assert f"fizzle:{op}" in ep.coverage
