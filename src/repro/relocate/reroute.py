"""Front-door and name-service rerouting.

A relocation is only finished when user demand follows the service to
its new home.  Two mechanisms, mirroring how the site actually routes:

- **front doors** (`traffic.frontdoor`): the failed instance is flagged
  down at drain time (stop shedding onto a corpse *now*, not at the
  next DGSPL refresh), and at cutover the new instance replaces the old
  one in the door's server set;
- **name service** (`net.nameservice`): the service alias
  ``svc.<app_name>`` is re-registered to the target host's address, so
  anything that resolves by name lands on the new endpoint.

When built with the site's condition ledger, each phase is also
published as a ``route`` condition (drain / cutover), so any ledger
subscriber -- front doors, the ops console -- learns about the move in
the same delivery that carries agent flags and host transitions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.persist.core import Persistent, scalars

__all__ = ["RerouteDirectory", "service_alias"]


def service_alias(app_name: str) -> str:
    """The name-service alias a relocatable service is published under."""
    return f"svc.{app_name}"


class RerouteDirectory(Persistent):
    """Everything that must learn about a service's new address."""

    #: counters only; doors re-register at rebuild and carry their own
    #: state
    _persist = scalars(int, "cutovers", "drains")

    def __init__(self, nameservice, ledger):
        self.nameservice = nameservice
        self.ledger = ledger
        #: app_type -> front doors spreading demand over that tier
        self.doors: Dict[str, List[object]] = {}
        self.cutovers = 0
        self.drains = 0

    def register_door(self, door) -> None:
        self.doors.setdefault(door.app_type, []).append(door)
        door.attach_ledger(self.ledger)

    # -- the two phases ------------------------------------------------------

    def drain(self, app) -> None:
        """Stop routing demand at the failing instance immediately."""
        self.drains += 1
        for door in self.doors.get(app.app_type, ()):
            door.flag_down(app.host.name)
        self.ledger.append("route", app.host.name, agent=app.name,
                           status="drain", detail=app.app_type)

    def cutover(self, old_app, new_app) -> None:
        """Point every route at the relocated instance."""
        self.cutovers += 1
        for door in self.doors.get(old_app.app_type, ()):
            door.replace(old_app, new_app)
            door.flag_up(new_app.host.name)
        ip = next((n.ip for n in new_app.host.nics.values()), "0.0.0.0")
        self.nameservice.register(service_alias(old_app.name), ip)
        self.ledger.append("route", new_app.host.name, agent=old_app.name,
                           status="cutover", detail=old_app.app_type)

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        tiers = sum(len(v) for v in self.doors.values())
        return f"<RerouteDirectory doors={tiers} cutovers={self.cutovers}>"
