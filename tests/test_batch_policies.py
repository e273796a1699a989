"""Unit tests for placement policies."""

import pytest

from repro.apps.database import Database
from repro.batch.jobs import BatchJob
from repro.batch.policies import (DgsplPolicy, ManualPolicy, RandomPolicy,
                                  rank_candidates)


@pytest.fixture
def fleet(dc, sim):
    """Three databases of different power: e10k > e4500 > ultra10."""
    big = dc.add_host("big", "sun-e10k")
    small = dc.add_host("small", "sun-ultra10")
    dbs = [Database(dc.host("db01"), "mid_db", max_job_slots=4),
           Database(big, "big_db", max_job_slots=4),
           Database(small, "small_db", max_job_slots=2)]
    for db in dbs:
        db.start()
    sim.run(until=sim.now + 200.0)
    return dbs


def _job(user="u1", target=None, failed_on=()):
    job = BatchJob("j", user, duration=100.0, requested_server=target)
    job.failed_on = list(failed_on)
    return job


def test_rank_orders_by_headroom_then_power(fleet):
    mid, big, small = fleet
    ranked = rank_candidates(fleet)
    assert ranked[0] is big        # same headroom, most power first
    # load the big one: it sinks
    big.host.extra_runnable = big.host.effective_cpus() * 5
    ranked = rank_candidates(fleet)
    assert ranked[0] is not big


def test_rank_filters_dead_full_excluded_weak(fleet):
    mid, big, small = fleet
    small.crash("x")
    assert small not in rank_candidates(fleet)
    assert big not in rank_candidates(fleet, exclude_hosts=["big"])
    strong = rank_candidates(fleet, min_power=big.host.spec.power)
    assert strong == [big]
    # fill mid's slots
    for i in range(4):
        mid.attach_job(_job())
    assert mid not in rank_candidates(fleet)


def test_random_policy_picks_running_only(fleet, rs):
    pol = RandomPolicy(rs.get("p"))
    mid, big, small = fleet
    mid.crash("x")
    big.crash("x")
    assert pol.choose(_job(), fleet) is small
    small.crash("x")
    assert pol.choose(_job(), fleet) is None


def test_manual_policy_honours_pinned_server(fleet, rs):
    pol = ManualPolicy(rs.get("m"))
    mid, big, small = fleet
    assert pol.choose(_job(target="small"), fleet) is small
    small.crash("x")
    assert pol.choose(_job(target="small"), fleet) is None


def test_manual_policy_habits_are_stable_and_load_blind(fleet, rs):
    pol = ManualPolicy(rs.get("m"))
    pol.favourites_per_user = 1
    first = pol.choose(_job(user="alice"), fleet)
    # same user, same favourite, regardless of load
    first.host.extra_runnable = first.host.effective_cpus() * 20
    again = pol.choose(_job(user="alice"), fleet)
    assert again is first


def test_dgspl_policy_takes_best_first(fleet):
    pol = DgsplPolicy()
    assert pol.choose(_job(), fleet).host.name == "big"


def test_dgspl_policy_power_rule_on_resubmit(fleet):
    mid, big, small = fleet
    pol = DgsplPolicy()
    # job failed on the mid server: needs equal-or-higher power, so the
    # small box is not eligible even though it idles
    job = _job(failed_on=["db01"])
    choice = pol.choose(job, fleet)
    assert choice is big


def test_dgspl_policy_relaxes_when_nothing_qualifies(fleet):
    mid, big, small = fleet
    big.crash("x")
    mid.crash("x")
    job = _job(failed_on=["big"])
    # only the small server lives: the power rule must relax
    assert pol_choice_name(pol := DgsplPolicy(), job, fleet) == "small"


def pol_choice_name(pol, job, fleet):
    choice = pol.choose(job, fleet)
    return choice.host.name if choice else None


def test_dgspl_policy_avoids_failed_on(fleet):
    mid, big, small = fleet
    job = _job(failed_on=["big"])
    choice = DgsplPolicy().choose(job, fleet)
    assert choice is not big


def test_dgspl_returns_none_when_everything_dead(fleet):
    for db in fleet:
        db.crash("x")
    assert DgsplPolicy().choose(_job(), fleet) is None
