"""Unit tests for the flag protocol."""

import pytest

from repro.core.flags import FLAG_DIR, FlagStore


@pytest.fixture
def store(db_host):
    return FlagStore(db_host.fs, "svc_ora01")


def test_raise_and_read(store):
    store.raise_flag("ok", 100.0)
    store.raise_flag("fault", 400.0, "oracle down")
    flags = store.flags()
    assert [f.status for f in flags] == ["ok", "fault"]
    assert flags[1].detail == "oracle down"
    assert store.latest().time == 400.0
    assert store.latest_time() == 400.0


def test_flags_live_in_the_dedicated_directory(store, db_host):
    store.raise_flag("ok", 100.0)
    files = db_host.fs.files_in_dir(f"{FLAG_DIR}/svc_ora01")
    assert files == [f"{FLAG_DIR}/svc_ora01/ok.100.0"]


def test_unknown_status_rejected(store):
    with pytest.raises(ValueError):
        store.raise_flag("confused", 0.0)


def test_latest_time_when_empty(store):
    assert store.latest_time() == float("-inf")
    assert store.latest() is None


def test_clear_before(store):
    for t in (10.0, 20.0, 30.0):
        store.raise_flag("ok", t)
    assert store.clear_before(25.0) == 2
    assert [f.time for f in store.flags()] == [30.0]


def test_clear_all(store):
    store.raise_flag("ok", 1.0)
    store.raise_flag("fixed", 2.0)
    assert store.clear_all() == 2
    assert store.flags() == []


def test_foreign_files_ignored(store, db_host):
    db_host.fs.write(f"{FLAG_DIR}/svc_ora01/README", ["not a flag"])
    store.raise_flag("ok", 5.0)
    assert len(store.flags()) == 1


def test_agents_on_lists_flag_directories(db_host):
    FlagStore(db_host.fs, "hardware").raise_flag("ok", 1.0)
    FlagStore(db_host.fs, "osnet").raise_flag("ok", 1.0)
    assert set(FlagStore.agents_on(db_host.fs)) >= {"hardware", "osnet"}


def test_flag_statuses_cover_the_protocol():
    from repro.core.flags import FLAG_STATUSES
    assert set(FLAG_STATUSES) == {"ok", "fault", "fixed", "failed",
                                  "skipped"}


# -- filename collisions (same status, same 0.1 s bucket) --------------------

def test_same_bucket_flags_do_not_overwrite(store):
    """Two flags of the same status in the same 0.1 s filename bucket
    used to silently overwrite; now the second gets a sequence suffix
    and both survive."""
    store.raise_flag("fault", 100.0, "first")
    store.raise_flag("fault", 100.0, "second")
    store.raise_flag("fault", 100.04, "third")   # same .1f bucket again
    flags = store.flags()
    assert [f.detail for f in flags] == ["first", "second", "third"]
    assert [f.seq for f in flags] == [0, 1, 2]
    # the freshest of the bucket wins latest()
    assert store.latest().detail == "third"


def test_collision_filenames_round_trip(store, db_host):
    store.raise_flag("ok", 7.0)
    store.raise_flag("ok", 7.0)
    files = sorted(db_host.fs.files_in_dir(f"{FLAG_DIR}/svc_ora01"))
    assert files == [f"{FLAG_DIR}/svc_ora01/ok.7.0",
                     f"{FLAG_DIR}/svc_ora01/ok.7.0.1"]
    assert store.latest_time() == 7.0
    assert store.clear_before(8.0) == 2


def test_latest_time_reads_names_not_files(store, db_host, monkeypatch):
    """The watchdog's number is in the file names; the detail line
    latest() opens the winner for is not part of it."""
    store.raise_flag("ok", 7.0, "older")
    store.raise_flag("fault", 9.0, "first")
    store.raise_flag("fault", 9.0, "second")
    db_host.fs.write(f"{store.dir}/README", ["not a flag"])
    db_host.fs.write(f"{store.dir}/ok.garbage", [])
    assert store.latest().detail == "second"
    monkeypatch.setattr(db_host.fs, "read", lambda path: pytest.fail(
        f"latest_time opened {path}"))
    assert store.latest_time() == 9.0


def test_distinct_buckets_still_collision_free(store):
    store.raise_flag("ok", 1.0)
    store.raise_flag("ok", 1.2)
    assert [f.seq for f in store.flags()] == [0, 0]


# -- condition-ledger binding ------------------------------------------------

def test_bound_store_publishes_conditions(store):
    from repro.controlplane import ConditionLedger
    ledger = ConditionLedger()
    store.bind(ledger, "db01")
    store.raise_flag("ok", 50.0)
    store.raise_flag("fault", 60.0, "disk")
    conds = ledger.read_since(0)
    assert [(c.kind, c.host, c.agent, c.status, c.time) for c in conds] == [
        ("flag", "db01", "svc_ora01", "ok", 50.0),
        ("flag", "db01", "svc_ora01", "fault", 60.0)]
    assert conds[1].detail == "disk"


def test_transport_gating_drops_but_keeps_local_flag(store, db_host):
    """A partitioned host still writes its flag locally; the condition
    simply never arrives -- exactly the 'absence of flags' the deadline
    wheel then notices."""
    from repro.controlplane import ConditionLedger
    ledger = ConditionLedger()
    reachable = {"ok": False}
    store.bind(ledger, "db01", lambda host: reachable["ok"])
    store.raise_flag("ok", 10.0)
    assert ledger.read_since(0) == []
    assert store.latest_time() == 10.0          # local write happened
    reachable["ok"] = True
    store.raise_flag("ok", 20.0)
    assert [c.time for c in ledger.read_since(0)] == [20.0]
