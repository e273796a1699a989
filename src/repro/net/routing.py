"""Agent-traffic routing with private→public fallback.

All intelliagent communication "goes through the private agent network
to avoid putting any performance/load overheads to the public LANs";
when the private network fails, agents "automatically re-route their
communication traffic over the public LAN, using Unix administration
commands" (§3.3).  :class:`AgentChannel` encodes exactly that policy
and keeps the counters the A-net ablation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.persist.core import Persistent, scalars, table

__all__ = ["AgentChannel", "Delivery", "WanCourier"]


@dataclass
class Delivery:
    """Result of one agent-network send."""

    ok: bool
    lan_name: str = ""
    lan_kind: str = ""
    latency_ms: float = 0.0
    rerouted: bool = False
    error: str = ""


class AgentChannel(Persistent):
    """Datacentre-wide message channel for agent traffic."""

    _persist = (*scalars(int, "sent", "delivered", "rerouted", "failed"),
                table("bytes_by_lan", int))

    def __init__(self, dc, private_lan: str, public_lans: List[str]):
        self.dc = dc
        self.private_lan = private_lan
        self.public_lans = list(public_lans)
        self.sent = 0
        self.delivered = 0
        self.rerouted = 0
        self.failed = 0
        self.bytes_by_lan: Dict[str, int] = {}

    def send(self, src_name: str, dst_name: str,
             nbytes: int = 2048) -> Delivery:
        """Send ``nbytes`` of agent traffic from ``src`` to ``dst``.

        Tries the private LAN first; on failure, walks the public LANs
        in order (the re-route).  A delivery over a public LAN is
        flagged ``rerouted`` so the overhead it imposes there is
        attributable.
        """
        self.sent += 1
        src = self.dc.hosts.get(src_name)
        dst = self.dc.hosts.get(dst_name)
        if src is None or dst is None:
            self.failed += 1
            return Delivery(False, error="unknown-host")
        if not (src.is_up and dst.is_up):
            self.failed += 1
            return Delivery(False, error="host-down")

        for i, lan_name in enumerate([self.private_lan] + self.public_lans):
            lan = self.dc.lans.get(lan_name)
            if lan is None:
                continue
            ok, latency = lan.send(src, dst, nbytes)
            if ok:
                rerouted = i > 0
                self.delivered += 1
                if rerouted:
                    self.rerouted += 1
                self.bytes_by_lan[lan_name] = (
                    self.bytes_by_lan.get(lan_name, 0) + nbytes)
                return Delivery(True, lan_name, lan.kind, latency, rerouted)
        self.failed += 1
        return Delivery(False, error="unreachable")

    def reachable(self, src_name: str, dst_name: str) -> bool:
        """Whether a send would currently succeed, without moving any
        bytes or touching the delivery counters.  The condition-ledger
        transport uses this to decide if a delta physically arrives."""
        src = self.dc.hosts.get(src_name)
        dst = self.dc.hosts.get(dst_name)
        if src is None or dst is None or not (src.is_up and dst.is_up):
            return False
        for lan_name in [self.private_lan] + self.public_lans:
            lan = self.dc.lans.get(lan_name)
            if lan is not None and lan.path_ok(src, dst)[0]:
                return True
        return False

    def broadcast(self, src_name: str,
                  dst_names: List[str]) -> List[Delivery]:
        return [self.send(src_name, d) for d in dst_names]


    def stats(self) -> Dict[str, float]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "rerouted": self.rerouted,
            "failed": self.failed,
            "delivery_rate": self.delivered / self.sent if self.sent else 1.0,
            "bytes_private": self.bytes_by_lan.get(self.private_lan, 0),
            "bytes_public": sum(v for k, v in self.bytes_by_lan.items()
                                if k != self.private_lan),
        }


class WanCourier(Persistent):
    """Site-to-site control-plane transport (digest exchange, cross-site
    escalation chatter) over the :class:`repro.net.network.Wan` mesh.

    The WAN analogue of :class:`AgentChannel`: there is no private/public
    fallback between datacentres -- one leased line per site pair -- so
    a partitioned link simply fails the delivery and the caller's
    freshness window does the rest.
    """

    _persist = (*scalars(int, "sent", "delivered", "failed"),
                table("bytes_by_pair", int))

    def __init__(self, wan):
        self.wan = wan
        self.sent = 0
        self.delivered = 0
        self.failed = 0
        self.bytes_by_pair: Dict[str, int] = {}

    def send(self, src_site: str, dst_site: str,
             nbytes: int = 4096) -> Delivery:
        self.sent += 1
        ok, latency_ms = self.wan.send(src_site, dst_site, nbytes)
        if not ok:
            self.failed += 1
            return Delivery(False, error="wan-partitioned")
        self.delivered += 1
        pair = "|".join(sorted((src_site, dst_site)))
        self.bytes_by_pair[pair] = self.bytes_by_pair.get(pair, 0) + nbytes
        return Delivery(True, lan_name=pair, lan_kind="wan",
                        latency_ms=latency_ms)
