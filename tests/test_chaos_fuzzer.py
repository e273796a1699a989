"""Fuzzer campaign tests: coverage accounting, determinism, the clean
baseline, and the headline planted-bug demo (discover + shrink)."""

import pytest

from repro.chaos.coverage import CoverageMap
from repro.chaos.executor import run_episode
from repro.chaos.fuzzer import ScenarioFuzzer
from repro.chaos.scenario import Scenario, build_corpus
from repro.chaos.shrink import shrink_episode


# -- coverage map unit behaviour ------------------------------------------------


def test_coverage_map_add_and_novelty():
    cm = CoverageMap()
    assert cm.add({"a", "b"}) == 2
    assert cm.add({"b", "c"}) == 1
    assert cm.novelty({"a", "c", "d"}) == 1
    assert len(cm) == 3
    assert cm.counts["b"] == 2


def test_coverage_map_growth_is_monotonic():
    cm = CoverageMap()
    cm.add({"a"})
    cm.add({"a"})
    cm.add({"b"})
    sizes = [size for _ep, size in cm.growth]
    assert sizes == sorted(sizes) == [1, 1, 2]


def test_coverage_map_json_round_trip():
    cm = CoverageMap()
    cm.add({"x", "y"})
    cm.add({"y"})
    back = CoverageMap.from_json(cm.to_json())
    assert back.counts == cm.counts
    assert back.growth == cm.growth
    assert back.episodes == cm.episodes


def test_rarest_orders_by_count():
    cm = CoverageMap()
    cm.add({"common", "rare"})
    cm.add({"common"})
    assert cm.rarest(1) == [("rare", 1)]


# -- campaigns (each episode ~0.2 s; budgets kept small) ------------------------


def _small_corpus():
    corpus = build_corpus(0)
    return [corpus["cron-silence"], corpus["cascade"]]


def test_clean_campaign_no_violations_monotonic_coverage():
    fz = ScenarioFuzzer(seed=0, corpus=_small_corpus(), episodes=10,
                        batch=5)
    res = fz.run()
    assert res.episodes == 10
    assert res.violations == []
    assert res.errors == []
    sizes = [size for _ep, size in res.coverage.growth]
    assert sizes == sorted(sizes)
    assert len(res.coverage) > 10
    # mutants add markers the two corpus seeds alone missed, or the
    # fuzzer is just replaying
    assert sizes[-1] > sizes[len(_small_corpus()) - 1]
    assert res.admitted


def test_campaign_deterministic_under_fixed_seed():
    def campaign():
        fz = ScenarioFuzzer(seed=11, corpus=_small_corpus(),
                            episodes=10, batch=5)
        return fz.run()
    a, b = campaign(), campaign()
    assert a.coverage.to_json() == b.coverage.to_json()
    assert a.admitted == b.admitted
    assert ([v["scenario_id"] for v in a.violations]
            == [v["scenario_id"] for v in b.violations])


def test_empty_corpus_self_seeds():
    fz = ScenarioFuzzer(seed=2, corpus=[], episodes=4, batch=4)
    assert len(fz.corpus) == 4
    res = fz.run()
    assert res.episodes == 4


# -- the planted-bug demo -------------------------------------------------------


@pytest.mark.slow
def test_fuzzer_finds_planted_bug_and_shrinker_reduces_it():
    """The acceptance demo: with the test-only planted regression armed
    (deadline-wheel mis-arms deep-backoff deadlines), a fuzzer seeded
    WITHOUT the wake-adversarial scenario must compose the adversarial
    timing itself, and the shrinker must reduce the find to <= 5
    events that still trip the same oracle."""
    corpus = [sc for name, sc in build_corpus(0).items()
              if name != "wake-adversarial"]
    fz = ScenarioFuzzer(seed=0, corpus=corpus, episodes=200, batch=10,
                        planted_bug=True, max_violations=1)
    res = fz.run()
    assert res.violations, "fuzzer failed to find the planted bug"
    found = res.violations[0]
    assert "scan-ledger-parity" in found["violated"]

    sc = Scenario.from_json(found["scenario_json"])
    sr = shrink_episode(sc, found["violated"], planted_bug=True)
    assert len(sr.shrunk.events) <= 5
    # the minimal reproducer still trips the same oracle...
    ep = run_episode(sr.shrunk, planted_bug=True)
    assert "scan-ledger-parity" in ep.violated
    # ...and is bug-specific: with the bug off it runs clean
    assert run_episode(sr.shrunk, planted_bug=False).ok


def test_planted_bug_inert_on_quiet_timing():
    """Early agent silence (no backoff yet) must NOT trip the planted
    bug -- that asymmetry is what makes the demo a search problem."""
    sc = build_corpus(0)["cron-silence"]
    assert run_episode(sc, planted_bug=True).ok
