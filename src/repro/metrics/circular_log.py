"""Circular-queue ASCII log files.

§3.5: "Each file produced by persistent state processes, was managed as
a circular queue, the length of which was configurable."  The log lives
in the host's simulated filesystem as a real flat-ASCII file, so disk
accounting and the agents' file-based workflows see it; the circular
discipline caps its length.

From its first append a file is a :class:`Ring`: a sampler row is kept
as its float64 values under its key set's ``%`` template
(:func:`_template`) and rendered to its line only when read, so every
reader sees the bytes the line would have held.  The ring is the only
copy of what was appended (sampler timelines are read back out of it)
and is checkpointed with the host filesystem; eviction drops the head
in place rather than rewriting the file.
"""

from __future__ import annotations

import functools
from itertools import chain
from struct import Struct, iter_unpack, unpack_from
from typing import Tuple

__all__ = ["CircularLog", "Ring"]


@functools.lru_cache(maxsize=256)
def _template(sampled: Tuple[str, ...]):
    """The record line for these metric names as a ``%`` template over
    ``(time, *values)``, the (sorted) order the values go in, the names
    as first asked for -- one object a ring can hold for every host
    sampling them in that order -- and the packer of a row's float64s.
    An empty group is ``"<t> "``, trailing blank included."""
    keys = tuple(sorted(sampled))
    return ("%.1f " + " ".join(k.replace("%", "%%") + "=%.3f"
                               for k in keys), keys, sampled,
            _packer(_row(keys)))


@functools.lru_cache(maxsize=None)
def _packer(row: str):
    """One packer per row width, however many key sets share it."""
    return Struct(row).pack


def _row(keys) -> str:
    """The ``struct`` format of one typed row, ``(t, v1..vk)``."""
    return "%dd" % (len(keys) + 1)


def _stride(tmpl: str, keys) -> int:
    """What one line takes of its run: a list slot, or its row's bytes."""
    return 1 if tmpl == "%s" else 8 * len(keys) + 8


class Ring:
    """A file's lines from its first append on, oldest first, as runs.

    A *typed* run is one key set -- its template and sorted keys -- and
    one ``bytearray`` of packed float64 ``(t, v1..vk)`` rows; a *text*
    run (template ``"%s"``, no keys) is a list of lines that arrived as
    text.  The newest run lives in the ring's own slots and older ones
    in a tuple, so a log whose key set holds is one collector-tracked
    object, as the list it replaces was (a ``bytearray`` is not tracked;
    an ``array`` is).  Eviction deletes the oldest rows in place, which
    a ``bytearray`` does by moving its start, not its rows.  A sequence
    of ``str``: ``len`` is O(1), an index renders only its row.
    """

    __slots__ = ("_older", "_tmpl", "_keys", "_data", "_len", "_order",
                 "_pack")

    def __init__(self, lines=()):
        self._older, self._tmpl, self._keys = (), "%s", ()
        self._order = self._pack = None
        self._data = list(lines)
        self._len = len(self._data)

    def render(self, line) -> str:
        """``line`` as the file holds it: text as it is, a sampler row
        (``time`` and a ``metrics`` map) through its key set's template,
        the ring's own if the names come in its last row's order."""
        if type(line) is str:
            return line
        metrics = line.metrics
        order = tuple(metrics)
        tmpl, keys = ((self._tmpl, self._keys) if order == self._order
                      else _template(order)[:2])
        return tmpl % (line.time, *map(metrics.__getitem__, keys))

    def append(self, line) -> None:
        """Add :meth:`render`'s ``line`` as the newest.  A row whose
        names come in the last row's order needs no template lookup."""
        if type(line) is str:
            if self._tmpl != "%s":
                self._start("%s", (), [])
            self._data.append(line)
        else:
            metrics = line.metrics
            order = tuple(metrics)
            if order != self._order:
                tmpl, keys, order, pack = _template(order)
                if tmpl != self._tmpl:
                    self._start(tmpl, keys, bytearray())
                self._order, self._pack = order, pack
            self._data += self._pack(line.time,
                                     *map(metrics.__getitem__, self._keys))
        self._len += 1

    def _start(self, tmpl, keys, data) -> None:
        if self._data:
            self._older += ((self._tmpl, self._keys, self._data),)
        self._tmpl, self._keys, self._data = tmpl, keys, data
        self._order = None

    def runs(self):
        """``(template, keys, data)`` per run, oldest first: a text run's
        lines or a typed run's packed rows."""
        return (*self._older, (self._tmpl, self._keys, self._data))

    def rows(self):
        """``(template, keys, rows)`` per run, oldest first: a text run's
        lines or a typed run's ``(t, v1..vk)`` tuples."""
        for tmpl, keys, data in self.runs():
            yield tmpl, keys, (data if tmpl == "%s"
                               else iter_unpack(_row(keys), data))

    def drop(self, count: int) -> None:
        """Evict the oldest ``count`` lines."""
        self._len -= min(count, self._len)
        for tmpl, keys, data in self.runs():
            stride = _stride(tmpl, keys)
            cut = min(count * stride, len(data))
            del data[:cut]
            count -= cut // stride
        self._older = tuple(run for run in self._older if run[2])

    def copy(self) -> "Ring":
        """An independent ring of the live lines, 8 B a value: what a
        snapshot holds instead of rendered lines."""
        ring = Ring()
        *older, (ring._tmpl, ring._keys, ring._data) = (
            (tmpl, keys, data[:]) for tmpl, keys, data in self.runs())
        ring._older, ring._len = tuple(older), self._len
        return ring

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(
            rows if tmpl == "%s" else map(tmpl.__mod__, rows)
            for tmpl, _keys, rows in self.rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        i = index + self._len if index < 0 else index
        if not 0 <= i < self._len:
            raise IndexError("ring index out of range")
        for tmpl, keys, data in self.runs():
            stride = _stride(tmpl, keys)
            if i * stride < len(data):
                return (data[i] if tmpl == "%s"
                        else tmpl % unpack_from(_row(keys), data, i * stride))
            i -= len(data) // stride

    def __eq__(self, other):
        if not isinstance(other, (Ring, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


class CircularLog:
    """A fixed-capacity append log backed by a host filesystem file."""
    __slots__ = ("fs", "path", "maxlen")

    def __init__(self, fs, path: str, maxlen: int = 1000):
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.fs = fs
        self.path = path
        self.maxlen = maxlen
        if not fs.exists(path):
            fs.write(path, [], now=0.0)

    def append(self, line, now: float = 0.0) -> None:
        """Append a text line or a sampler row, evicting the oldest
        line(s) beyond capacity."""
        f = self.fs.append(self.path, line, now=now)
        excess = len(f.lines) - self.maxlen
        if excess > 0:
            self.fs.drop_head(self.path, excess, now=now)
