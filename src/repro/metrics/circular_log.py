"""Circular-queue ASCII log files.

§3.5: "Each file produced by persistent state processes, was managed as
a circular queue, the length of which was configurable."  The log lives
in the host's simulated filesystem as a real flat-ASCII file, so disk
accounting and the agents' file-based workflows see it; the circular
discipline caps its length.

The file is the only copy of what was appended (sampler timelines are
parsed back out of it) and is checkpointed with the host filesystem;
eviction drops the head in place rather than rewriting the file.
"""

from __future__ import annotations

__all__ = ["CircularLog"]


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

    def append(self, line: str, now: float = 0.0) -> None:
        """Append, evicting the oldest line(s) beyond capacity."""
        f = self.fs.append(self.path, line, now=now)
        excess = len(f.lines) - self.maxlen
        if excess > 0:
            self.fs.drop_head(self.path, excess, now=now)
