"""The spare-server pool.

The paper's administration servers relocate services "to spare
capacity": machines racked, powered and templated, but carrying no
live user load.  A spare registers here with its SLKT -- the template
*is* the warm standby: every application the spare can host is already
installed (binaries, filesystems, control scripts) and sits STOPPED,
waiting for a cold start.

The pool is a plain claim ledger.  The planner reads it for candidate
targets; the orchestrator claims a spare for the duration of one
relocation so two concurrent failovers never race onto the same box,
and releases it on rollback (a successful relocation keeps the claim:
the spare is now a production server until an operator re-spares it).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ontology.slkt import Slkt, build_slkt
from repro.persist.core import Persistent, scalars, table

__all__ = ["SparePool"]


class SparePool(Persistent):
    """Warm standby servers available as relocation targets."""

    #: claims only; templates are structural (registered at build from
    #: the same deterministic site construction)
    _persist = (table("claims"),
                *scalars(int, "claims_made", "claims_released"))

    def __init__(self, dc):
        self.dc = dc
        #: spare host name -> its SLKT (what the box can run)
        self.templates: Dict[str, Slkt] = {}
        #: spare host name -> subject it was claimed for
        self.claims: Dict[str, str] = {}
        self.claims_made = 0
        self.claims_released = 0

    # -- registration --------------------------------------------------------

    def register(self, host) -> None:
        """Put a host up as a spare: the live host is captured as its
        own template (its idle app slots define what it can take
        over)."""
        self.templates[host.name] = build_slkt(host)

    # -- queries -------------------------------------------------------------

    def is_spare(self, host_name: str) -> bool:
        return host_name in self.templates

    def slkt_of(self, host_name: str) -> Optional[Slkt]:
        return self.templates.get(host_name)

    def available(self) -> List[str]:
        """Unclaimed spares whose host is up, name-ordered (the order
        is part of the planner's determinism contract)."""
        out = []
        for name in sorted(self.templates):
            if name in self.claims:
                continue
            host = self.dc.hosts.get(name)
            if host is not None and host.is_up:
                out.append(name)
        return out

    # -- claims --------------------------------------------------------------

    def claim(self, host_name: str, subject: str) -> bool:
        """Reserve a spare for one relocation.  False if already taken
        (or not a spare at all)."""
        if host_name not in self.templates or host_name in self.claims:
            return False
        self.claims[host_name] = subject
        self.claims_made += 1
        return True

    def release(self, host_name: str) -> None:
        if self.claims.pop(host_name, None) is not None:
            self.claims_released += 1

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<SparePool spares={len(self.templates)} "
                f"claimed={len(self.claims)}>")
