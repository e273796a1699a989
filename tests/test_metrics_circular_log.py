"""Unit tests for circular logs."""

import pytest

from repro.cluster.filesystem import (FileSystem, FsError, FsFullError,
                                      FsOfflineError)
from repro.metrics.circular_log import CircularLog


@pytest.fixture
def fs():
    return FileSystem()


def test_append_and_read(fs):
    log = CircularLog(fs, "/logs/x", maxlen=10)
    log.append("a", now=1.0)
    log.append("b", now=2.0)
    assert fs.read(log.path) == ["a", "b"]
    assert len(fs.read(log.path)) == 2


def test_circular_eviction(fs):
    log = CircularLog(fs, "/logs/x", maxlen=3)
    for i in range(7):
        log.append(f"l{i}")
    assert fs.read(log.path) == ["l4", "l5", "l6"]
    assert len(fs.read(log.path)) == 3


def test_eviction_keeps_disk_accounting_consistent(fs):
    log = CircularLog(fs, "/logs/x", maxlen=5)
    for i in range(100):
        log.append(f"line-{i:04d}")
    mount = fs.mounts["/logs"]
    # the file is bounded, so usage must be small
    assert mount.used_bytes < 200


def test_bad_maxlen():
    with pytest.raises(ValueError):
        CircularLog(FileSystem(), "/logs/x", maxlen=0)


def test_existing_file_adopted(fs):
    fs.write("/logs/x", ["old1", "old2"])
    log = CircularLog(fs, "/logs/x", maxlen=5)
    log.append("new")
    assert fs.read(log.path) == ["old1", "old2", "new"]


# -- eviction: in-place head drop == the rewrite it replaced --------------------


def rewrite_append(fs, path, line, maxlen, now=0.0):
    """Reference eviction: once over capacity, re-create the file from
    its tail with ``fs.write`` -- what ``CircularLog.append`` did
    before the head was dropped in place.  Lives here, not in ``src/``:
    it is what the ring's bytes, accounting and refusals are held to."""
    f = fs.append(path, line, now=now)
    if len(f.lines) > maxlen:
        fs.write(path, f.lines[-maxlen:], now=now)


def _ring_and_reference(maxlen, adopted=()):
    pair = []
    for _ in range(2):
        fs = FileSystem()
        if adopted:
            fs.write("/logs/x", list(adopted), now=1.0)
        CircularLog(fs, "/logs/x", maxlen=maxlen)
        pair.append(fs)
    return pair


@pytest.mark.parametrize("adopted", [(), [f"old-{i}" for i in range(9)]],
                         ids=["fresh", "adopted-overlong"])
def test_eviction_matches_the_rewrite_reference(adopted):
    ring, ref = _ring_and_reference(4, adopted)
    log = CircularLog(ring, "/logs/x", maxlen=4)
    for i in range(12):
        line = "x" * (i % 5) + f" sample-{i}"
        for fs in (ring, ref):               # a neighbour on the mount
            fs.append("/logs/other", f"n{i}", now=10.0 + i)
        log.append(line, now=10.0 + i)
        rewrite_append(ref, "/logs/x", line, 4, now=10.0 + i)
        assert ring.snapshot_state() == ref.snapshot_state()
    assert len(ring.read(log.path)) == 4
    assert ring.stat("/logs/x").mtime == 21.0
    assert ring.mounts["/logs"].used_bytes == (
        ring.stat("/logs/x").size + ring.stat("/logs/other").size)


def test_full_log_append_does_not_rewrite_the_file(fs, monkeypatch):
    log = CircularLog(fs, "/logs/x", maxlen=3)
    for i in range(3):
        log.append(f"l{i}")
    monkeypatch.setattr(fs, "write", lambda *a, **kw: pytest.fail(
        "a full log's append re-created the file"))
    log.append("l3")
    assert fs.read(log.path) == ["l1", "l2", "l3"]


def _readonly(mount):
    mount.readonly = True


def _offline(mount):
    mount.online = False


def _full(mount):
    mount.used_bytes = mount.capacity_bytes


@pytest.mark.parametrize("break_mount, error", [
    (_readonly, FsError), (_offline, FsOfflineError), (_full, FsFullError)])
def test_broken_mount_refuses_the_evicting_append_as_before(break_mount,
                                                            error):
    ring, ref = _ring_and_reference(3)
    log = CircularLog(ring, "/logs/x", maxlen=3)
    for i in range(3):
        log.append(f"l{i}", now=float(i))
        rewrite_append(ref, "/logs/x", f"l{i}", 3, now=float(i))
    for fs in (ring, ref):
        break_mount(fs.mounts["/logs"])
    with pytest.raises(error) as got:
        log.append("l3", now=9.0)
    with pytest.raises(error) as want:
        rewrite_append(ref, "/logs/x", "l3", 3, now=9.0)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert ring.snapshot_state() == ref.snapshot_state()
    assert ring.stat("/logs/x").lines == ["l0", "l1", "l2"]
