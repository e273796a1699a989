"""Unit tests for the simulated filesystem."""

import pytest

from repro.cluster.filesystem import (FileSystem, FsError, FsFullError,
                                      FsOfflineError)


@pytest.fixture
def fs():
    return FileSystem()


def test_write_read_roundtrip(fs):
    fs.write("/logs/a.txt", ["one", "two"], now=5.0)
    assert fs.read("/logs/a.txt") == ["one", "two"]
    assert fs.stat("/logs/a.txt").mtime == 5.0


def test_write_accepts_string(fs):
    fs.write("/logs/a", "x\ny")
    assert fs.read("/logs/a") == ["x", "y"]


def test_append_creates_and_grows(fs):
    fs.append("/logs/log", "l1", now=1.0)
    fs.append("/logs/log", "l2", now=2.0)
    assert fs.read("/logs/log") == ["l1", "l2"]


def test_missing_file_raises(fs):
    with pytest.raises(FsError):
        fs.read("/logs/nothing")


def test_relative_path_rejected(fs):
    with pytest.raises(FsError):
        fs.write("relative/path", ["x"])


def test_capacity_accounting_and_disk_full(fs):
    small = FileSystem(mounts={"/": 10**6, "/tiny": 100})
    small.write("/tiny/f", ["x" * 50])
    with pytest.raises(FsFullError):
        small.write("/tiny/g", ["y" * 80])
    # overwriting with smaller content frees space
    small.write("/tiny/f", ["x"])
    small.write("/tiny/g", ["y" * 80])


def test_mount_of_longest_prefix(fs):
    assert fs._mount("/logs/x/y", "/logs/x").point == "/logs"
    assert fs._mount("/whatever", "/").point == "/"


def test_offline_mount_errors(fs):
    fs.write("/logs/f", ["x"])
    fs.mounts["/logs"].online = False
    with pytest.raises(FsOfflineError):
        fs.read("/logs/f")
    with pytest.raises(FsOfflineError):
        fs.write("/logs/g", ["y"])


def test_readonly_mount(fs):
    fs.mounts["/logs"].readonly = True
    with pytest.raises(FsError):
        fs.write("/logs/f", ["x"])


def test_remove_frees_space(fs):
    used0 = fs.mounts["/logs"].used_bytes
    fs.write("/logs/f", ["hello world"])
    assert fs.mounts["/logs"].used_bytes > used0
    assert fs.remove("/logs/f")
    assert fs.mounts["/logs"].used_bytes == used0
    assert not fs.remove("/logs/f")


def test_glob_and_dir_index(fs):
    fs.write("/logs/d/a", [])
    fs.write("/logs/d/b", [])
    fs.write("/logs/d/sub/c", [])
    assert fs.glob_files("/logs/d") == ["/logs/d/a", "/logs/d/b",
                                        "/logs/d/sub/c"]
    assert fs.files_in_dir("/logs/d") == ["/logs/d/a", "/logs/d/b"]
    fs.remove("/logs/d/a")
    assert fs.files_in_dir("/logs/d") == ["/logs/d/b"]


def test_fill_sets_usage(fs):
    fs.fill("/logs", 0.97)
    assert 96.0 < fs.mounts["/logs"].pct_used < 98.0


def test_df_sorted(fs):
    points = [m.point for m in fs.df()]
    assert points == sorted(points)


def test_write_and_append_return_what_the_benchmark_harness_tallies(fs):
    """``benchmarks/e2e/layers.py`` counts bytes written as
    ``write(...).size`` and ``append(...).lines[-1]`` plus a newline."""
    assert fs.write("/logs/f", ["abc", "de"]).size == 7
    assert fs.write("/logs/e", []).size == 0
    appended = fs.append("/logs/f", "xyz", now=3.0)
    assert appended.lines[-1] == "xyz"
    assert (appended.path, appended.mtime, appended.size) == (
        "/logs/f", 3.0, 11)
    assert fs.append("/logs/new", "q").lines[-1] == "q"
