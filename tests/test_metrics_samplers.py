"""Unit tests for the workgroup samplers."""

import pytest

from repro.cluster.filesystem import FsOfflineError
from repro.metrics.samplers import Sample, SamplerSuite, WORKGROUPS


@pytest.fixture
def suite(database):
    return SamplerSuite(database.host)


def test_five_workgroups(suite):
    assert set(WORKGROUPS) == {"os", "network", "disks", "app_procs",
                               "user_procs"}
    samples = suite.sample_all()
    assert [s.group for s in samples] == list(WORKGROUPS)


def test_os_sample_carries_the_336_metrics(suite):
    s = suite.sample_os()
    for key in ("run_queue", "scan_rate", "page_out", "page_faults",
                "free_mb", "cpu_idle", "blocked"):
        assert key in s.metrics


def test_samples_logged_to_circular_ascii_files(suite, database):
    suite.sample_all()
    host = database.host
    # "classified first by server name and then by measurement group"
    path = f"/logs/perf/{host.name}/os"
    lines = host.fs.read(path)
    assert len(lines) == 1
    parsed = Sample.parse("os", lines[0])
    assert parsed.metrics["run_queue"] >= 0


def test_series_accumulate(suite, sim):
    suite.sample_all()
    sim.run(until=sim.now + 600)
    suite.sample_all()
    ts = suite.get_series("os", "cpu_idle")
    assert len(ts) == 2
    assert suite.get_series("os", "nonexistent") is None


def test_disk_sample_reports_service_times(suite, database):
    database.host.add_io_demand(database.host.online_disks() * 0.9)
    s = suite.sample_disks()
    assert s.metrics["worst_asvc_t"] > 8.0
    assert s.metrics["sd0_busy"] > 80.0
    assert "fs_logs_pct" in s.metrics


def test_app_procs_sample(suite, database):
    s = suite.sample_app_procs()
    assert s.metrics[f"{database.name}_nproc"] == len(database.procs)
    assert s.metrics[f"{database.name}_mem_mb"] > 0


def test_user_procs_excludes_system_users(suite, database):
    host = database.host
    host.ptable.spawn("analyst1", "sas", cpu_pct=50.0, mem_mb=100.0)
    s = suite.sample_user_procs()
    assert s.metrics["analyst1_cpu"] == 50.0
    assert "root_cpu" not in s.metrics
    assert s.metrics["worst_user_cpu"] == 50.0


def test_network_sample_counts_nic_stats(suite, dc, database):
    lan = dc.lan("public0")
    lan.send(dc.host("db01"), dc.host("adm01"), 14600)
    s = suite.sample_network()
    assert s.metrics["hme0_opkts"] == 10
    assert "nfs_calls" in s.metrics


def test_sampling_down_host_yields_nothing(suite, database):
    database.host.crash("x")
    assert suite.sample_all() == []


def test_sample_format_roundtrip():
    s = Sample(12.5, "os", {"a": 1.25, "b": -3.0})
    parsed = Sample.parse("os", s.format())
    assert parsed.time == 12.5
    assert parsed.metrics == {"a": 1.25, "b": -3.0}


# -- reading history back from the log -------------------------------------------


def _garble_third_line(host):
    host.fs.append(f"/logs/perf/{host.name}/os", "1400.0 cpu_idle=n/a")


def _out_of_order_line(host):
    host.fs.append(f"/logs/perf/{host.name}/os", "1.0 cpu_idle=50.000")


def _logs_offline(host):
    host.fs.mounts["/logs"].online = False


@pytest.mark.parametrize("damage, group, key, expected", [
    (_garble_third_line, "os", "cpu_idle",
     (ValueError, r"^/logs/perf/db01/os:3: .*cpu_idle=n/a")),
    (_out_of_order_line, "os", "cpu_idle",
     (ValueError, r"^/logs/perf/db01/os:3: .*non-decreasing")),
    (_logs_offline, "os", "cpu_idle", (FsOfflineError, r"^/logs: I/O error")),
    (None, "tape", "cpu_idle", None),            # group never sampled
    (None, "os", "nonexistent", None),           # key never sampled
    (None, "os", "cpu_idle", 2),                 # the plain read
], ids=["malformed-line", "time-goes-back", "logs-offline", "unknown-group",
        "unknown-key", "after-resume"])
def test_history_read_back_is_loud_and_read_only(suite, sim, database,
                                                 damage, group, key,
                                                 expected):
    """Every read goes through a suite with no log handles yet -- the
    state ``FidelityHarness.resume`` leaves -- and, whatever it
    answers, leaves the host's filesystem as it found it."""
    host = database.host
    suite.sample_all()
    sim.run(until=sim.now + 600)
    suite.sample_all()
    if damage is not None:
        damage(host)
    resumed = SamplerSuite(host)
    before = host.fs.snapshot_state()
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error, match=message):
            resumed.get_series(group, key)
    elif expected is None:
        assert resumed.get_series(group, key) is None
    else:
        ts = resumed.get_series(group, key)
        assert ts.name == "os.cpu_idle" and len(ts) == expected
        assert list(ts.times) == [200.0, 800.0]
    assert host.fs.snapshot_state() == before
    assert resumed.logs == {}
