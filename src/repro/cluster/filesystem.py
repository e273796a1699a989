"""Simulated filesystem.

Everything the paper's agents produce is "flat ASCII files generated by
I/O Unix pipes": flags under ``/logs/intelliagents/<agent>/``, circular
performance logs, ontology files.  Hosts therefore carry a small
filesystem model with mount points, capacity accounting and text files.

Paths are plain POSIX strings; directories exist implicitly once a file
is written under them but can also be created explicitly.  Disk-full and
filesystem-offline errors surface as exceptions that the shell layer
converts to non-zero exit codes, which is exactly the signal the
resource agents key on.

Every agent wake writes a flag, most append to a log, so the per-call
work is kept to what the call changes: a path is normalised once per
operation (and an already-canonical one is returned untouched), a
file's size is computed once, and the directory bookkeeping runs only
when a directory gains its first file.  The one memo, mount lookup, is
keyed by *directory* -- directories recur, file names (flag and profile
stamps) are minted per wake -- and is derived state: never snapshotted,
dropped whenever the mount table changes.  A file is two map entries,
its lines and, in its directory's ``{path: mtime}`` listing, its mtime:
written lines are a tuple the cyclic collector stops tracking, and from
its first append a file is a :class:`~repro.metrics.circular_log.Ring`,
which keeps a sampler row as its values and renders it on read.  The
:class:`SimFile` a call returns is built for the caller, kept nowhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.circular_log import Ring

__all__ = ["FsError", "FsFullError", "FsOfflineError", "SimFile",
           "Mount", "FileSystem"]


class FsError(Exception):
    """Generic filesystem failure."""


class FsFullError(FsError):
    """No space left on device."""


class FsOfflineError(FsError):
    """The mount is unavailable (disk failed / not mounted)."""


def _size(lines: Sequence[str]) -> int:
    return sum(map(len, lines)) + len(lines)


@dataclass(slots=True)
class SimFile:
    """A flat ASCII file as one call saw it: its lines plus metadata."""

    path: str
    lines: Sequence[str]
    mtime: float

    @property
    def size(self) -> int:
        return _size(self.lines)


@dataclass
class Mount:
    """One mounted filesystem."""

    point: str
    capacity_bytes: int
    used_bytes: int = 0
    online: bool = True
    readonly: bool = False

    @property
    def pct_used(self) -> float:
        if self.capacity_bytes <= 0:
            return 100.0
        return 100.0 * self.used_bytes / self.capacity_bytes


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


def _norm(path: str) -> str:
    if not path.startswith("/"):
        raise FsError(f"path must be absolute: {path!r}")
    if "//" not in path and not path.endswith("/"):
        return path             # already canonical: the usual case
    while "//" in path:
        path = path.replace("//", "/")
    return path.rstrip("/") or "/"


class FileSystem:
    """A host's filesystem tree with mount-point capacity accounting."""

    DEFAULT_MOUNTS: Tuple[Tuple[str, int], ...] = (
        ("/", 2 * 1024**3),
        ("/var", 1 * 1024**3),
        ("/apps", 4 * 1024**3),
        ("/logs", 2 * 1024**3),
        ("/data", 16 * 1024**3),
    )

    def __init__(self, mounts: Optional[Dict[str, int]] = None):
        #: path -> lines (a tuple until the file's first append, a Ring on)
        self._files: Dict[str, Sequence[str]] = {}
        #: directory -> the name it was made with, the key object of its
        #: listing and memo (shared by every host whose agent makes it)
        self._dirs: Dict[str, str] = {"/": "/"}
        #: directory -> {path: mtime} of the files directly inside
        self._dir_index: Dict[str, Dict[str, float]] = {}
        self.mounts: Dict[str, Mount] = {}
        #: directory -> mount of the paths directly inside it
        self._mount_cache: Dict[str, Mount] = {}
        for point, cap in (mounts or dict(self.DEFAULT_MOUNTS)).items():
            self.add_mount(point, cap)

    # -- mounts ----------------------------------------------------------

    def add_mount(self, point: str, capacity_bytes: int) -> Mount:
        point = _norm(point)
        mount = Mount(point, capacity_bytes)
        self.mounts[point] = mount
        self._dirs.setdefault(point, point)
        self._mount_cache.clear()
        return mount

    def _mount(self, path: str, parent: str) -> Mount:
        """The longest-prefix mount of a normalised path.  A mount
        point is its own mount; any other path shares the mount of its
        ``parent`` directory, which is what the memo is keyed by."""
        mount = self.mounts.get(path)
        if mount is not None:
            return mount
        best = self._mount_cache.get(parent)
        if best is not None:
            return best
        for point, mount in self.mounts.items():
            if path.startswith(point + "/") or point == "/":
                if best is None or len(point) > len(best.point):
                    best = mount
        if best is None:
            raise FsError(f"no mount covers {path!r}")
        self._mount_cache[self._dirs.get(parent, parent)] = best
        return best

    def _check_writable(self, path: str, parent: str, extra_bytes: int) -> Mount:
        """``path`` is already normalised."""
        mount = self._mount(path, parent)
        if not mount.online:
            raise FsOfflineError(f"{mount.point}: I/O error")
        if mount.readonly:
            raise FsError(f"{mount.point}: read-only file system")
        if extra_bytes > 0 and mount.used_bytes + extra_bytes > mount.capacity_bytes:
            raise FsFullError(f"{mount.point}: no space left on device")
        return mount

    # -- directories -----------------------------------------------------

    def mkdir(self, path: str) -> None:
        """Make ``path`` and its ancestors.  An ancestor's name is
        interned: it is the parent of a host-specific directory
        (``/logs/perf/<host>``) or of one every host makes, so one
        object serves every host."""
        path = _norm(path)
        while path != "/":
            self._dirs.setdefault(path, path)
            path = sys.intern(_parent(path))

    # -- files -----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return _norm(path) in self._files

    def write(self, path: str, lines: List[str] | str, now: float = 0.0) -> SimFile:
        """Create or truncate-and-write a file."""
        path = _norm(path)
        parent = _parent(path)
        lines = tuple(lines.splitlines() if isinstance(lines, str) else lines)
        old = self._files.get(path)
        growth = _size(lines) - (0 if old is None else _size(old))
        mount = self._check_writable(path, parent, growth)
        self._files[path] = lines
        self._listing(parent)[path] = now
        mount.used_bytes += growth
        return SimFile(path, lines, now)

    def _listing(self, parent: str) -> Dict[str, float]:
        """A directory's listing; the directory (and its ancestors) are
        created with its first file."""
        listing = self._dir_index.get(parent)
        if listing is None:
            self.mkdir(parent)
            listing = self._dir_index[self._dirs[parent]] = {}
        return listing

    def append(self, path: str, line, now: float = 0.0) -> SimFile:
        """Append a text line or a sampler row, rendered here for its
        length (:meth:`Ring.render`) and kept as its values."""
        path = _norm(path)
        parent = _parent(path)
        ring = self._files.get(path)
        if type(ring) is not Ring:          # the file's first append
            ring = Ring(ring or ())
        extra = len(ring.render(line)) + 1
        mount = self._check_writable(path, parent, extra)
        ring.append(line)
        self._files[path] = ring
        self._listing(parent)[path] = now
        mount.used_bytes += extra
        return SimFile(path, ring, now)

    def drop_head(self, path: str, count: int, now: float = 0.0) -> None:
        """Evict the oldest ``count`` lines in place: what
        ``write(path, lines[count:])`` does to the file, its mount and
        ``mtime``, without copying the lines that stay."""
        key = _norm(path)
        lines = self._files.get(key)
        if lines is None:
            raise FsError(f"{path}: no such file")
        parent = _parent(key)
        freed = _size(lines[:count])
        mount = self._check_writable(key, parent, -freed)
        if type(lines) is Ring:
            lines.drop(count)
        else:
            self._files[key] = lines[count:]
        self._dir_index[parent][key] = now
        mount.used_bytes -= freed

    def read(self, path: str) -> List[str]:
        return list(self.open(path))

    def open(self, path: str) -> Sequence[str]:
        """The file's lines as kept (a tuple or a ring), for a reader
        that walks them at once; :meth:`read` copies them."""
        path = _norm(path)
        mount = self._mount(path, _parent(path))
        if not mount.online:
            raise FsOfflineError(f"{mount.point}: I/O error")
        lines = self._files.get(path)
        if lines is None:
            raise FsError(f"{path}: no such file")
        return lines

    def stat(self, path: str) -> SimFile:
        key = _norm(path)
        lines = self._files.get(key)
        if lines is None:
            raise FsError(f"{path}: no such file")
        return SimFile(key, lines, self._dir_index[_parent(key)][key])

    def remove(self, path: str) -> bool:
        path = _norm(path)
        lines = self._files.pop(path, None)
        if lines is None:
            return False
        parent = _parent(path)
        del self._dir_index[parent][path]
        mount = self._mount(path, parent)
        mount.used_bytes = max(0, mount.used_bytes - _size(lines))
        return True

    def glob_files(self, prefix: str) -> List[str]:
        """All file paths under ``prefix`` (recursive), sorted."""
        prefix = _norm(prefix)
        pre = prefix + "/" if prefix != "/" else "/"
        return sorted(p for p in self._files
                      if p == prefix or p.startswith(pre))

    def files_in_dir(self, path: str) -> List[str]:
        """File paths directly inside ``path`` (non-recursive, O(k);
        the hot call for flag directories)."""
        return sorted(self._dir_index.get(_norm(path), ()))

    def fill(self, mount_point: str, fraction: float) -> None:
        """Fault-injection helper: set a mount's used fraction."""
        mount = self.mounts[_norm(mount_point)]
        mount.used_bytes = int(mount.capacity_bytes * fraction)

    def df(self) -> List[Mount]:
        return sorted(self.mounts.values(), key=lambda m: m.point)

    # -- persistence -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Files in creation order (listings sort, but they are
        refilled in this order), mounts with their accounting --
        ``used_bytes`` is authoritative, not recomputed, because fault
        injection can set it directly via :meth:`fill`."""
        return {
            "mounts": [
                {"point": m.point, "capacity_bytes": m.capacity_bytes,
                 "used_bytes": m.used_bytes, "online": m.online,
                 "readonly": m.readonly}
                for m in self.mounts.values()
            ],
            "dirs": sorted(self._dirs),
            "files": [       # a ring is copied, rendered as it is encoded
                {"path": path, "lines": (lines.copy() if type(lines) is Ring
                                         else list(lines)),
                 "mtime": self._dir_index[_parent(path)][path]}
                for path, lines in self._files.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        self._files.clear()
        made, self._dirs = self._dirs, {"/": "/"}
        self._dirs.update((name, made.get(name, name)) for name in state["dirs"])
        self._dir_index.clear()
        self.mounts.clear()
        self._mount_cache.clear()
        for row in state["mounts"]:
            mount = Mount(row["point"], int(row["capacity_bytes"]),
                          used_bytes=int(row["used_bytes"]),
                          online=bool(row["online"]),
                          readonly=bool(row["readonly"]))
            self.mounts[mount.point] = mount
            self._dirs.setdefault(mount.point, mount.point)
        for row in state["files"]:
            path = row["path"]
            lines = row["lines"]
            self._files[path] = (lines.copy() if type(lines) is Ring
                                 else tuple(lines))
            self._listing(_parent(path))[path] = float(row["mtime"])
