"""Unit tests for crond."""

import pytest


def test_job_fires_on_absolute_grid(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now))
    sim.run(until=1000.0)
    assert ticks == [300.0, 600.0, 900.0]


def test_offset_shifts_grid(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now),
                           offset=50.0)
    sim.run(until=700.0)
    assert ticks == [50.0, 350.0, 650.0]


def test_register_replaces(sim, db_host):
    a, b = [], []
    db_host.crond.register("t", 300.0, lambda: a.append(1))
    db_host.crond.register("t", 300.0, lambda: b.append(1))
    sim.run(until=400.0)
    assert a == [] and b == [1]


def test_remove(sim, db_host):
    ticks = []
    db_host.crond.register("t", 100.0, lambda: ticks.append(1))
    sim.run(until=250.0)
    assert db_host.crond.remove("t")
    sim.run(until=1000.0)
    assert len(ticks) == 2
    assert not db_host.crond.remove("t")


def test_crond_death_and_restart_keeps_grid(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now))
    sim.run(until=350.0)
    db_host.crond.kill()
    sim.run(until=950.0)
    assert ticks == [300.0]
    db_host.crond.restart()
    sim.run(until=1300.0)
    # resumes on the original grid, not a shifted one
    assert ticks == [300.0, 1200.0]


def test_host_down_misses_then_resumes(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now))
    sim.run(until=350.0)
    db_host.crash("x")
    sim.run(until=900.0)
    db_host.boot()
    sim.run(until=1600.0)
    assert ticks[0] == 300.0
    assert all(t % 300.0 == 0.0 for t in ticks)
    job = db_host.crond.jobs["t"]
    assert job.missed >= 1


def test_bad_period_rejected(db_host):
    with pytest.raises(ValueError):
        db_host.crond.register("t", 0.0, lambda: None)


def test_next_fire(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now),
                           offset=10.0)
    sim.run(until=11.0)
    assert ticks == [10.0]


def test_set_period_rearms_onto_new_grid(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now))
    sim.run(until=350.0)
    db_host.crond.set_period("t", 600.0)
    sim.run(until=2000.0)
    assert ticks == [300.0, 600.0, 1200.0, 1800.0]
    with pytest.raises(ValueError):
        db_host.crond.set_period("t", -1.0)


def test_demand_wake_fires_now_then_returns_to_grid(sim, db_host):
    ticks = []
    job = db_host.crond.register("t", 300.0,
                                 lambda: ticks.append(sim.now))
    sim.run(until=420.0)
    assert db_host.crond.demand_wake("t")
    sim.run(until=sim.now)          # drain the zero-delay event
    assert ticks == [300.0, 420.0]
    assert job.demand_runs == 1
    sim.run(until=1000.0)
    # the off-grid wake did not shift the absolute grid
    assert ticks == [300.0, 420.0, 600.0, 900.0]


def test_demand_wake_refused_while_down_or_dead(sim, db_host):
    ticks = []
    db_host.crond.register("t", 300.0, lambda: ticks.append(sim.now))
    db_host.crond.kill()
    assert not db_host.crond.demand_wake("t")
    db_host.crond.restart()
    db_host.crash("x")
    assert not db_host.crond.demand_wake("t")
    assert not db_host.crond.demand_wake("nosuchjob")
    assert ticks == []


def test_demand_wake_same_instant_is_deduped(sim, db_host):
    ticks = []
    job = db_host.crond.register("t", 300.0,
                                 lambda: ticks.append(sim.now))
    sim.run(until=100.0)
    assert db_host.crond.demand_wake("t")
    # a second trigger in the same instant rides the armed wake
    assert db_host.crond.demand_wake("t")
    sim.run(until=sim.now)
    assert ticks == [100.0]
    assert job.demand_runs == 1


def test_downtime_missed_accounting_then_demand_then_grid(sim, db_host):
    """Grid resumption after downtime: missed wakes are counted, a
    demand wake catches up off-grid, and the next wake is back on the
    absolute grid."""
    ticks = []
    job = db_host.crond.register("t", 300.0,
                                 lambda: ticks.append(sim.now))
    sim.run(until=350.0)
    db_host.crash("power")
    sim.run(until=1250.0)           # grid points 600, 900, 1200 missed
    db_host.boot()
    sim.run(until=db_host.sim.now + db_host.boot_duration + 1.0)
    assert job.missed >= 3          # (+1 if the boot spans 1500 too)
    assert ticks == [300.0]
    assert db_host.crond.demand_wake("t")
    sim.run(until=sim.now)
    assert len(ticks) == 2          # the catch-up wake, off-grid
    sim.run(until=2200.0)
    # back on the original absolute grid afterwards
    assert ticks[2:] == [t for t in (1500.0, 1800.0, 2100.0)
                         if t > ticks[1]]
