"""Property: the file store behaves as a plain dict of line lists.

:class:`~repro.cluster.filesystem.FileSystem` keeps a file as two map
entries (its lines, a tuple until the first append, and its mtime in
its directory's listing) and hands out :class:`SimFile` views built per
call.  Driven through a random interleaving of every writer --
``write``, ``append``, ``drop_head``, ``remove``, ``fill`` and a
snapshot -> restore into a fresh store -- it must after every step
answer ``read``, ``exists``, ``files_in_dir``, ``stat`` (its ``mtime``
included), ``df()`` and ``snapshot_state()`` as the obvious model below
does, refuse exactly what the model refuses, create no directory when
it removes a path (there or not), and return from ``write`` /
``append`` what the end-to-end harness tallies (``write(...).size`` is
the bytes written, ``append(...).lines[-1]`` the appended line).

A sampler row appended to a path is kept typed in the file's ring; the
model holds the line :meth:`Sample.format` renders, so a ring path must
equal its list of lines through every other operation too.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from repro.cluster.filesystem import FileSystem, FsError, FsFullError
from repro.metrics.samplers import Sample, SamplerSuite
from repro.persist.core import canonical_json

MOUNTS = {"/": 10**6, "/logs": 10**6, "/tiny": 40}
PATHS = ["/logs/a", "/logs/b", "/logs/d/c", "/tiny/t", "/tiny/u", "/x"]
DIRS = ["/", "/logs", "/logs/d", "/tiny"]


def _size(lines) -> int:
    return sum(len(line) + 1 for line in lines)


class Model:
    """Files as a dict of lists in creation order, one byte count per
    mount, and the directories every file ever created."""

    def __init__(self):
        self.files, self.mtimes = {}, {}
        self.used = dict.fromkeys(MOUNTS, 0)
        self.dirs = set(MOUNTS)

    def mount(self, path):
        return max((p for p in MOUNTS
                    if p == "/" or path == p or path.startswith(p + "/")),
                   key=len)

    def _grow(self, path, growth):
        point = self.mount(path)
        if growth > 0 and self.used[point] + growth > MOUNTS[point]:
            raise FsFullError(point)
        self.used[point] += growth

    def _create(self, path):
        parent = path.rsplit("/", 1)[0] or "/"
        while parent != "/":
            self.dirs.add(parent)
            parent = parent.rsplit("/", 1)[0] or "/"

    def write(self, path, lines, now):
        lines = lines.splitlines() if isinstance(lines, str) else list(lines)
        self._grow(path, _size(lines) - _size(self.files.get(path, ())))
        if path not in self.files:
            self._create(path)
        self.files[path], self.mtimes[path] = lines, now

    def append(self, path, line, now):
        self._grow(path, len(line) + 1)
        if path not in self.files:
            self._create(path)
            self.files[path] = []
        self.files[path].append(line)
        self.mtimes[path] = now

    def drop_head(self, path, count, now):
        if path not in self.files:
            raise FsError(path)
        self._grow(path, -_size(self.files[path][:count]))
        del self.files[path][:count]
        self.mtimes[path] = now

    def remove(self, path):
        if path not in self.files:
            return False
        point = self.mount(path)
        self.used[point] = max(0, self.used[point]
                               - _size(self.files.pop(path)))
        del self.mtimes[path]
        return True

    def fill(self, point, fraction):
        self.used[point] = int(MOUNTS[point] * fraction)

    def snapshot(self):
        return {
            "mounts": [{"point": p, "capacity_bytes": cap,
                        "used_bytes": self.used[p], "online": True,
                        "readonly": False} for p, cap in MOUNTS.items()],
            "dirs": sorted(self.dirs),
            "files": [{"path": p, "lines": list(lines),
                       "mtime": self.mtimes[p]}
                      for p, lines in self.files.items()],
        }


_path = st.sampled_from(PATHS)
_line = st.text(alphabet="ab xy", max_size=7)
_lines = st.lists(_line, max_size=4) | st.builds("\n".join,
                                                 st.lists(_line, max_size=3))
#: key sets a row draws from: one set in two orders, a subset, none
KEYSETS = [("a", "b"), ("b", "a"), ("c",), (), ("a", "b", "c")]
_value = st.sampled_from([0.0, -0.0, -1.5, 1e12, -1e12, 5e-324,
                          2.2250738585072014e-308, 0.0005, 12.3456]) \
    | st.floats(-1e13, 1e13)
_row = st.builds(
    lambda keys, t, values: Sample(t, "g", dict(zip(keys, values))),
    st.sampled_from(KEYSETS), st.floats(0.0, 1e6),
    st.lists(_value, min_size=3, max_size=3))
_op = st.one_of(
    st.tuples(st.just("write"), _path, _lines),
    st.tuples(st.just("append"), _path, _line),
    st.tuples(st.just("append"), _path, _row),
    st.tuples(st.just("drop_head"), _path, st.integers(0, 5)),
    st.tuples(st.just("remove"), _path),
    st.tuples(st.just("fill"), st.sampled_from(list(MOUNTS)),
              st.sampled_from([0.0, 0.5, 0.95, 1.0])),
    st.tuples(st.just("restore")))


def _outcome(call):
    try:
        return "ok", call()
    except FsError as exc:
        return type(exc), None


def _agrees(fs, model):
    for path in PATHS:
        assert fs.exists(path) == (path in model.files)
        if path in model.files:
            assert fs.read(path) == model.files[path]
            view = fs.stat(path)
            assert list(view.lines) == model.files[path]
            assert (view.path, view.mtime) == (path, model.mtimes[path])
    for d in DIRS:
        assert fs.files_in_dir(d) == sorted(
            p for p in model.files if p.rsplit("/", 1)[0] == (
                "" if d == "/" else d))
    assert [(m.point, m.used_bytes) for m in fs.df()] == sorted(
        model.used.items())
    assert fs.snapshot_state() == model.snapshot()


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_file_store_equals_a_dict_of_lists(ops):
    fs, model = FileSystem(mounts=dict(MOUNTS)), Model()
    for now, (name, *args) in enumerate(ops):
        if name == "restore":
            state = json.loads(canonical_json(fs.snapshot_state()))
            fs = FileSystem(mounts=dict(MOUNTS))
            fs.restore_state(state)
        elif name in ("write", "append", "drop_head"):
            got = _outcome(lambda: getattr(fs, name)(*args, now=now))
            if isinstance(args[-1], Sample):    # the model keeps its line
                args = (args[0], args[1].format())
            want = _outcome(lambda: getattr(model, name)(*args, now=now))
            assert got[0] == want[0]
            if got[0] == "ok" and name == "write":
                assert got[1].size == _size(model.files[args[0]])
            elif got[0] == "ok" and name == "append":
                assert got[1].lines[-1] == args[1]
                assert got[1].size == _size(model.files[args[0]])
        elif name == "remove":
            dirs = fs.snapshot_state()["dirs"]
            assert fs.remove(*args) == model.remove(*args)
            assert fs.snapshot_state()["dirs"] == dirs
        else:
            fs.fill(*args)
            model.fill(*args)
        _agrees(fs, model)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, max_size=30), junk=st.booleans())
def test_a_typed_row_renders_its_line_and_reads_back_as_parsed(rows, junk):
    """A row kept typed renders to :meth:`Sample.format`, and
    ``get_series`` over a ring equals :meth:`Sample.parse` of the file's
    lines -- typed runs, a text run between them, and after a restore."""
    host = SimpleNamespace(name="h", fs=FileSystem())
    suite = SamplerSuite(host)
    log, rows = suite._log("g"), sorted(rows, key=lambda r: r.time)
    path, half = log.path, len(rows) // 2
    for row in rows[:half]:
        log.append(row, now=row.time)
    if junk and half:                 # a text line parsing cannot fail on
        host.fs.append(path, rows[half - 1].format(), now=1.0)
    state = json.loads(canonical_json(host.fs.snapshot_state()))
    if half % 2:
        host.fs.restore_state(state)
    for row in rows[half:]:
        log.append(row, now=row.time)
    lines = host.fs.read(path)
    want = rows[:half] + ([rows[half - 1]] if junk and half else []) \
        + rows[half:]
    assert lines == [row.format() for row in want]
    parsed = [Sample.parse("g", line) for line in lines]
    for key in ("a", "b", "c", "z"):
        series = suite.get_series("g", key)
        pairs = [(s.time, s.metrics[key]) for s in parsed if key in s.metrics]
        got = [] if series is None else list(zip(series.times.tolist(),
                                                 series.values.tolist()))
        assert got == pairs
