"""Datacentre assembly.

Holds the host registry, the LANs and name resolution.  The figure-1
topology -- every host on one or more public LANs plus the private
intelliagent network, administration servers on both -- is built by
:mod:`repro.experiments.site` from the primitives here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, TYPE_CHECKING

from repro.cluster.host import Host
from repro.cluster.specs import ServerSpec, spec as lookup_spec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator
    from repro.net.network import Lan

__all__ = ["Datacenter"]


class Datacenter:
    """Registry of hosts and networks for one simulated site."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.lans: Dict[str, "Lan"] = {}
        #: host-name groups, e.g. "db", "tp", "frontend", "admin".
        self.groups: Dict[str, List[str]] = {}

    # -- hosts ---------------------------------------------------------------

    def add_host(self, name: str, model: str | ServerSpec, *,
                 group: str = "misc", site: str = "london",
                 boot_duration: float = 300.0) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        hspec = lookup_spec(model) if isinstance(model, str) else model
        host = Host(self.sim, name, hspec, site=site,
                    boot_duration=boot_duration)
        host.datacenter = self
        self.hosts[name] = host
        self.groups.setdefault(group, []).append(name)
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def group(self, group: str) -> List[Host]:
        return [self.hosts[n] for n in self.groups.get(group, ())]

    def all_hosts(self) -> List[Host]:
        return list(self.hosts.values())

    def up_hosts(self) -> List[Host]:
        return [h for h in self.hosts.values() if h.is_up]

    def managed_hosts(self) -> List[Host]:
        """Hosts inside the datacentre proper.  Hosts in the 'external'
        group (feed gateways standing in for the outside world) are
        not -- nothing on site manages them."""
        external = self.groups.get("external", ())
        return [h for h in self.hosts.values() if h.name not in external]

    # -- networks ----------------------------------------------------------------

    def add_lan(self, lan: "Lan") -> None:
        if lan.name in self.lans:
            raise ValueError(f"duplicate LAN {lan.name!r}")
        self.lans[lan.name] = lan

    def lan(self, name: str) -> "Lan":
        return self.lans[name]

    def connect(self, host_name: str, lan_name: str):
        """Attach a host NIC to a LAN (delegates to the net layer)."""
        return self.lans[lan_name].attach(self.hosts[host_name])

    # -- reachability -----------------------------------------------------------------

    def shared_lans(self, a: str, b: str) -> List["Lan"]:
        """LANs that both hosts are attached to."""
        ha, hb = self.hosts[a], self.hosts[b]
        names_a = {nic.lan.name for nic in ha.nics.values()}
        return [nic.lan for nic in hb.nics.values()
                if nic.lan.name in names_a]

    def probe(self, src: str, dst: str) -> tuple[bool, float]:
        """ICMP-style reachability: source and destination both up, at
        least one shared LAN healthy, both NICs healthy.  Returns
        (reachable, rtt_ms)."""
        if src not in self.hosts or dst not in self.hosts:
            return (False, 0.0)
        hsrc, hdst = self.hosts[src], self.hosts[dst]
        if not (hsrc.is_up and hdst.is_up):
            return (False, 0.0)
        for lan in self.shared_lans(src, dst):
            ok, rtt = lan.path_ok(hsrc, hdst)
            if ok:
                return (True, rtt)
        return (False, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Datacenter hosts={len(self.hosts)} lans={list(self.lans)}>"
