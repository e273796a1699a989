"""NFS-shared state pool for the administration servers.

The coordinators run "in a high-availability failover configuration and
share a common pool of NFS mounted disks, to avoid single points of
failure" (§3.1).  :class:`SharedPool` is that pool: one filesystem
visible from every admin server, available as long as at least one of
the serving heads is up.  Clients' ``nfsstat`` counters tick on access.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.filesystem import FileSystem, FsOfflineError
from repro.persist.core import Persistent, part

__all__ = ["SharedPool"]


class SharedPool(Persistent):
    """A dual-headed NFS filesystem."""

    #: pool contents; serving heads are structural (re-attached at
    #: rebuild) and the nfsstat counters are the clients'
    _persist = (part("fs"),)

    def __init__(self, sim):
        self.sim = sim
        self.fs = FileSystem(mounts={"/": 8 * 1024**3})
        #: hosts that can serve the pool (the admin pair)
        self.servers: List[object] = []

    def add_server(self, host) -> None:
        self.servers.append(host)

    def available(self) -> bool:
        """At least one serving head must be up (the HA property)."""
        return any(h.is_up for h in self.servers) if self.servers else True

    def _access(self, client) -> None:
        if client is not None:
            client.nfs_calls += 1
        if not self.available():
            if client is not None:
                client.nfs_retrans += 1
            raise FsOfflineError("nfs: server not responding")

    # -- proxied file operations --------------------------------------------

    def write(self, client, path: str, lines) -> None:
        self._access(client)
        self.fs.write(path, lines, now=self.sim.now)

    def append(self, client, path: str, line: str) -> None:
        self._access(client)
        self.fs.append(path, line, now=self.sim.now)
