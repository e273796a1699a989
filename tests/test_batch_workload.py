"""Unit tests for the analyst workload generator."""

import pytest

from repro.apps.database import Database
from repro.batch.lsf import LsfCluster, LsfMaster
from repro.batch.workload import OvernightWorkload
from repro.sim.calendar import DAY, HOUR


@pytest.fixture
def lsf(dc, sim, rs):
    master = LsfMaster(dc.host("adm01"))
    master.start()
    db = Database(dc.host("db01"), "ora01", max_job_slots=50)
    db.start()
    sim.run(until=sim.now + 200.0)
    cluster = LsfCluster(dc, master, rng=rs.get("lsf"),
                         base_crash_prob=0.0)
    cluster.register_server(db)
    return cluster


def test_nightly_batch_submits_on_weekday_evening(sim, lsf, rs):
    wl = OvernightWorkload(lsf, rs.get("wl"), jobs_per_night=10)
    wl.daytime_jobs_per_hour = 0.0
    wl.start()
    # epoch is Monday 00:00; submissions land at 20:00
    sim.run(until=19.9 * HOUR)
    assert len(wl.submitted) == 0
    sim.run(until=21.0 * HOUR)
    assert len(wl.submitted) == 10


def test_no_nightly_batch_on_weekend(sim, lsf, rs):
    wl = OvernightWorkload(lsf, rs.get("wl"), jobs_per_night=10)
    wl.daytime_jobs_per_hour = 0.0
    wl.start()
    # run through Friday night...
    sim.run(until=5 * DAY)
    friday_count = len(wl.submitted)
    assert friday_count == 50       # Mon-Fri
    # ...and the weekend: nothing new
    sim.run(until=7 * DAY)
    assert len(wl.submitted) == friday_count


def test_manual_targeting_pins_to_habitual_server(sim, lsf, rs):
    wl = OvernightWorkload(lsf, rs.get("wl"), manual_targeting=True)
    job = wl.make_job()
    assert job.requested_server == "db01"
    wl2 = OvernightWorkload(lsf, rs.get("wl2"), manual_targeting=False)
    assert wl2.make_job().requested_server is None


def test_daytime_jobs_only_in_business_hours(sim, lsf, rs):
    wl = OvernightWorkload(lsf, rs.get("wl"), jobs_per_night=0)
    wl.daytime_jobs_per_hour = 4.0
    wl.start()
    sim.run(until=7.0 * HOUR)       # before business hours
    assert len(wl.submitted) == 0
    sim.run(until=17.0 * HOUR)
    assert len(wl.submitted) > 0


def test_bounced_submissions_counted(sim, lsf, rs):
    lsf.master.crash("x")
    wl = OvernightWorkload(lsf, rs.get("wl"), jobs_per_night=5)
    wl.daytime_jobs_per_hour = 0.0
    wl.start()
    sim.run(until=21 * HOUR)
    assert wl.bounced == 5
    assert wl.submitted == []


def test_completion_stats(sim, lsf, rs):
    wl = OvernightWorkload(lsf, rs.get("wl"), jobs_per_night=5)
    wl.daytime_jobs_per_hour = 0.0
    wl.start()
    sim.run(until=3 * DAY)      # Mon, Tue and Wed evenings
    stats = wl.completion_stats()
    assert stats["submitted"] == 15
    assert stats["done"] + stats["failed"] <= stats["submitted"]
    assert 0.0 <= stats["completion_rate"] <= 1.0
