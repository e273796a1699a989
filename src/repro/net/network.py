"""LANs and NICs.

A :class:`Lan` is a shared segment (the site used 100 Base-T Ethernet).
Hosts attach through :class:`Nic` objects which carry the per-interface
counters that ``netstat`` reports and the network agents watch
(packets, errors, collisions, utilisation).

Failure modes: a whole LAN can fail (switch death / firewall
misconfiguration), and an individual NIC can fail (hardware fault).
Either breaks reachability for paths that depend on it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.persist.core import Persistent, part, scalar, scalars

__all__ = ["Lan", "Nic", "Wan", "WanLink"]


class Nic(Persistent):
    """One network interface attached to one LAN."""

    __slots__ = ("host", "lan", "ifname", "ip", "ok",
                 "packets_in", "packets_out", "bytes_in", "bytes_out",
                 "errors_in", "errors_out", "collisions")
    _persist = (scalar("ok", bool),
                *scalars(int, "packets_in", "packets_out", "bytes_in",
                         "bytes_out", "errors_in", "errors_out",
                         "collisions"))

    def __init__(self, host, lan: "Lan", ifname: str, ip: str):
        self.host = host
        self.lan = lan
        self.ifname = ifname
        self.ip = ip
        self.ok = True
        self.packets_in = 0
        self.packets_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.errors_in = 0
        self.errors_out = 0
        self.collisions = 0

    def fail(self) -> None:
        self.ok = False

    def repair(self) -> None:
        self.ok = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Nic {self.host.name}:{self.ifname} on {self.lan.name}>"


class Lan(Persistent):
    """A shared network segment.

    ``base_latency_ms`` is the unloaded round-trip; effective latency
    grows with utilisation.  Utilisation decays between observations
    via an exponential window so agents polling every few minutes see a
    recent-average picture rather than an instantaneous spike.
    """

    #: window (seconds) over which traffic counts toward utilisation
    UTIL_WINDOW = 300.0
    #: a switched 100BASE-T segment and its unloaded round-trip
    bandwidth_mbps = 100.0
    base_latency_ms = 0.5
    #: segment state only; per-NIC counters snapshot with their hosts
    #: (membership itself is structural)
    _persist = (scalar("up", bool),
                scalar("window_bytes", float, "_window_bytes"),
                scalar("window_start", float, "_window_start"),
                *scalars(int, "total_bytes", "total_messages"))

    def __init__(self, sim, name: str, *, kind: str = "public",
                 subnet: str = "192.168.1"):
        self.sim = sim
        self.name = name
        self.kind = kind
        self.subnet = subnet
        self.up = True
        self.nics: Dict[str, Nic] = {}      # keyed by host name
        self._ip_counter = itertools.count(10)
        self._window_bytes = 0.0
        self._window_start = sim.now
        self.total_bytes = 0
        self.total_messages = 0

    # -- membership -----------------------------------------------------------

    def attach(self, host) -> Nic:
        if host.name in self.nics:
            raise ValueError(f"{host.name} already on LAN {self.name}")
        ifname = f"hme{len(host.nics)}"
        ip = f"{self.subnet}.{next(self._ip_counter)}"
        nic = Nic(host, self, ifname, ip)
        self.nics[host.name] = nic
        host.nics[ifname] = nic
        return nic

    # -- failure ------------------------------------------------------------------

    def fail(self) -> None:
        self.up = False

    def repair(self) -> None:
        self.up = True

    # -- traffic --------------------------------------------------------------------

    def _decay_window(self) -> None:
        now = self.sim.now
        if now - self._window_start >= self.UTIL_WINDOW:
            self._window_bytes = 0.0
            self._window_start = now

    def utilization(self) -> float:
        """Fraction of capacity consumed over the recent window, 0..1."""
        self._decay_window()
        window = max(1.0, self.sim.now - self._window_start,
                     self.UTIL_WINDOW / 10.0)
        capacity_bytes = self.bandwidth_mbps * 125_000 * window
        return min(1.0, self._window_bytes / capacity_bytes)

    def latency_ms(self) -> float:
        """Effective RTT: grows hyperbolically as the segment saturates."""
        util = self.utilization()
        return self.base_latency_ms / max(0.05, 1.0 - min(0.95, util))

    def path_ok(self, src, dst) -> Tuple[bool, float]:
        """Can ``src`` reach ``dst`` across this LAN right now?"""
        if not self.up:
            return (False, 0.0)
        nsrc, ndst = self.nics.get(src.name), self.nics.get(dst.name)
        if nsrc is None or ndst is None or not (nsrc.ok and ndst.ok):
            return (False, 0.0)
        return (True, self.latency_ms())

    def send(self, src, dst, nbytes: int) -> Tuple[bool, float]:
        """Move ``nbytes`` from ``src`` to ``dst``; updates counters.
        Returns (delivered, latency_ms)."""
        ok, latency = self.path_ok(src, dst)
        nsrc, ndst = self.nics.get(src.name), self.nics.get(dst.name)
        if not ok:
            if nsrc is not None:
                nsrc.errors_out += 1
            return (False, 0.0)
        self._decay_window()
        packets = max(1, nbytes // 1460)
        nsrc.packets_out += packets
        nsrc.bytes_out += nbytes
        ndst.packets_in += packets
        ndst.bytes_in += nbytes
        if self.utilization() > 0.8:
            nsrc.collisions += 1
        self._window_bytes += nbytes
        self.total_bytes += nbytes
        self.total_messages += 1
        return (True, latency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Lan {self.name} ({self.kind}) {state} hosts={len(self.nics)}>"


class WanLink(Persistent):
    """One long-haul link between two named sites.

    Where a :class:`Lan` is a shared segment inside a datacentre, a
    ``WanLink`` is the leased line between two of them.  Its failure
    modes are deliberately distinct:

    * ``partition()`` -- the link is *unreachable*: every send fails.
    * ``degrade()``   -- the link is *slow*: sends still deliver, at
      ``DEGRADED_FACTOR`` times the base latency.

    Unreachable and slow must never be conflated: a partitioned site
    drops out of digest exchange entirely (its state goes stale at the
    federation), while a degraded one merely answers late.
    """

    DEGRADED_FACTOR = 8.0

    __slots__ = ("a", "b", "name", "base_latency_ms", "up", "degraded",
                 "total_bytes", "total_messages", "drops")
    _persist = (scalar("up", bool), scalar("degraded", bool),
                *scalars(int, "total_bytes", "total_messages", "drops"))

    def __init__(self, a: str, b: str, *, base_latency_ms: float = 70.0):
        if a == b:
            raise ValueError(f"WAN link needs two distinct sites, got {a!r}")
        self.a, self.b = sorted((a, b))
        self.name = f"wan:{self.a}<->{self.b}"
        self.base_latency_ms = float(base_latency_ms)
        self.up = True
        self.degraded = False
        self.total_bytes = 0
        self.total_messages = 0
        self.drops = 0

    # -- failure model --------------------------------------------------------

    def partition(self) -> None:
        self.up = False

    def degrade(self) -> None:
        self.degraded = True

    def repair(self) -> None:
        self.up = True
        self.degraded = False

    def reachable(self) -> bool:
        return self.up

    def latency_ms(self) -> float:
        if not self.up:
            return 0.0
        if self.degraded:
            return self.base_latency_ms * self.DEGRADED_FACTOR
        return self.base_latency_ms

    def send(self, nbytes: int) -> Tuple[bool, float]:
        """Move ``nbytes`` across the link.  Returns (delivered,
        latency_ms); a partitioned link drops the message."""
        if not self.up:
            self.drops += 1
            return (False, 0.0)
        self.total_bytes += nbytes
        self.total_messages += 1
        return (True, self.latency_ms())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "PARTITIONED"
        if self.up and self.degraded:
            state = "degraded"
        return f"<WanLink {self.a}<->{self.b} {state}>"


class Wan(Persistent):
    """The full mesh of :class:`WanLink` segments between named sites.

    Intra-site paths (``a == b``) are always reachable at zero WAN
    latency -- the LANs model those.  Links are keyed by the sorted
    site pair, so lookups are direction-free.
    """

    _persist = (part("links", lambda wan: {
        f"{a}|{b}": link for (a, b), link in sorted(wan.links.items())}),)

    def __init__(self):
        self.links: Dict[Tuple[str, str], WanLink] = {}

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return tuple(sorted((a, b)))       # type: ignore[return-value]

    def connect(self, a: str, b: str, *,
                base_latency_ms: float = 70.0) -> WanLink:
        link = WanLink(a, b, base_latency_ms=base_latency_ms)
        self.links[self._key(a, b)] = link
        return link

    def link(self, a: str, b: str) -> Optional[WanLink]:
        return self.links.get(self._key(a, b))

    def links_of(self, site: str) -> List[WanLink]:
        return [ln for key, ln in sorted(self.links.items()) if site in key]

    def latency_ms(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        link = self.link(a, b)
        return link.latency_ms() if link is not None else 0.0

    def send(self, a: str, b: str, nbytes: int) -> Tuple[bool, float]:
        if a == b:
            return (True, 0.0)
        link = self.link(a, b)
        if link is None:
            return (False, 0.0)
        return link.send(nbytes)

    # -- site-scoped failure helpers (split-brain / site isolation) ----------

    def partition_site(self, site: str) -> int:
        """Partition every link touching ``site``; returns how many."""
        touched = self.links_of(site)
        for link in touched:
            link.partition()
        return len(touched)

    def repair_site(self, site: str) -> int:
        touched = self.links_of(site)
        for link in touched:
            link.repair()
        return len(touched)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Wan links={len(self.links)}>"
