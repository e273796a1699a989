"""Index static service lists (ISSL).

"Very basic information about each server or resource IP address and
services.  They can contain up to 200 entries and are manually
updated."  §3.4 adds that manually-created ISSLs "have been
experimentally proven to be the best way to maintain server
information" because datacentres rarely change device inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.ontology.base import (OntologyDoc, OntologyError, decode_list,
                                 encode_list)

__all__ = ["IsslEntry", "Issl"]

MAX_ENTRIES = 200


@dataclass(frozen=True)
class IsslEntry:
    """One server or resource."""

    name: str
    ip: str
    kind: str = "server"            # server | resource
    services: tuple = ()


class Issl:
    """The manually-maintained site index."""

    def __init__(self):
        self._entries: Dict[str, IsslEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, name: str, ip: str, *, kind: str = "server",
            services: Sequence[str] = ()) -> IsslEntry:
        if len(self._entries) >= MAX_ENTRIES and name not in self._entries:
            raise OntologyError(
                f"ISSL is full ({MAX_ENTRIES} entries); split the site")
        entry = IsslEntry(name, ip, kind, tuple(services))
        self._entries[name] = entry
        return entry

    def remove(self, name: str) -> bool:
        return self._entries.pop(name, None) is not None

    def get(self, name: str) -> Optional[IsslEntry]:
        return self._entries.get(name)

    def entries(self) -> List[IsslEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def names(self) -> List[str]:
        return sorted(self._entries)

    def with_service(self, service: str) -> List[IsslEntry]:
        return [e for e in self.entries() if service in e.services]

    # -- codec ----------------------------------------------------------------

    def to_doc(self, now: float = 0.0) -> OntologyDoc:
        doc = OntologyDoc("ISSL", now)
        for e in self.entries():
            doc.add("entry", name=e.name, ip=e.ip, kind=e.kind,
                    services=encode_list(e.services))
        return doc

    @classmethod
    def from_doc(cls, doc: OntologyDoc) -> "Issl":
        if doc.kind != "ISSL":
            raise OntologyError(f"not an ISSL document: {doc.kind!r}")
        issl = cls()
        for rec in doc.of_type("entry"):
            issl.add(rec["name"], rec["ip"], kind=rec.get("kind", "server"),
                     services=decode_list(rec.get("services", "")))
        return issl

    def write_to(self, fs, path: str, now: float = 0.0) -> None:
        self.to_doc(now).write_to(fs, path, now=now)

    @classmethod
    def read_from(cls, fs, path: str) -> "Issl":
        return cls.from_doc(OntologyDoc.parse(fs.read(path)))
