"""Flat-ASCII ontology codec.

One deliberately plain format shared by all four ontology kinds --
"flat ASCII files generated by I/O Unix pipes, readable by most Unix
tools" (§3.2).  A document is:

.. code-block:: text

    #ONTOLOGY SLKT 1
    #GENERATED 86400.0

    record=application
    name=oracle_db01
    type=database
    processes=oracle_pmon:1,oracle_dbwr:2

    record=hardware
    model=sun-e4500
    cpus=8

Records are blank-line-separated ``key=value`` blocks; the first key of
every record must be ``record`` (its type tag).  Values are single-line
strings; lists are comma-joined.  The codec is strict and loss-free:
``parse(render(doc)) == doc`` for any well-formed doc, which the
hypothesis round-trip tests enforce.

:class:`OntologyDoc` parses every kind and renders the static ones; the
live DLSP and DGSPL render straight to lines, pinned to it by property
tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["OntologyError", "OntologyDoc", "encode_list", "decode_list"]

_FORBIDDEN_IN_KEY = frozenset("=\n\r #")


class OntologyError(Exception):
    """Malformed ontology text or record."""


def encode_list(items: Iterable[str]) -> str:
    """Comma-join, rejecting items that would not survive the trip
    (commas, newlines and empty strings are not representable)."""
    out = []
    for item in items:
        if not item or "," in item or "\n" in item:
            raise OntologyError(f"list item not encodable: {item!r}")
        out.append(item)
    return ",".join(out)


def decode_list(value: str) -> List[str]:
    if not value:
        return []
    return value.split(",")


@dataclass
class OntologyDoc:
    """A parsed ontology document."""

    kind: str                       # ISSL | SLKT | DLSP | DGSPL
    generated_at: float = 0.0
    records: List[Dict[str, str]] = field(default_factory=list)

    VERSION = 1

    # -- construction helpers ----------------------------------------------------

    def add(self, record_type: str, **fields: str) -> Dict[str, str]:
        rec: Dict[str, str] = {"record": record_type}
        for k, v in fields.items():
            self._check_key(k)
            rec[k] = self._check_value(str(v))
        self.records.append(rec)
        return rec

    def of_type(self, record_type: str) -> List[Dict[str, str]]:
        return [r for r in self.records if r.get("record") == record_type]

    def first(self, record_type: str) -> Optional[Dict[str, str]]:
        recs = self.of_type(record_type)
        return recs[0] if recs else None

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def _check_key(key: str) -> str:
        """Field names recur record after record, wake after wake: a
        good one is checked once (a bad one raises every time)."""
        if not key or not _FORBIDDEN_IN_KEY.isdisjoint(key):
            raise OntologyError(f"bad ontology key: {key!r}")
        return key

    @staticmethod
    def _check_value(value: str) -> str:
        if "\n" in value or "\r" in value:
            raise OntologyError(f"ontology value must be one line: {value!r}")
        return value

    # -- codec ---------------------------------------------------------------------

    @classmethod
    def header(cls, kind: str, generated_at: float) -> List[str]:
        """The two lines every document starts with."""
        return [f"#ONTOLOGY {kind} {cls.VERSION}",
                f"#GENERATED {generated_at!r}"]

    def render(self) -> List[str]:
        """Serialise to lines (what gets written to the flat file)."""
        lines = self.header(self.kind, self.generated_at)
        for rec in self.records:
            if "record" not in rec:
                raise OntologyError(f"record without type tag: {rec!r}")
            lines.append("")
            lines.append(f"record={rec['record']}")
            for k, v in rec.items():
                if k == "record":
                    continue
                self._check_key(k)
                lines.append(f"{k}={self._check_value(str(v))}")
        return lines

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "OntologyDoc":
        it = iter(lines)
        try:
            header = next(it)
        except StopIteration:
            raise OntologyError("empty ontology file") from None
        parts = header.split()
        if len(parts) != 3 or parts[0] != "#ONTOLOGY":
            raise OntologyError(f"bad ontology header: {header!r}")
        kind = parts[1]
        if parts[2] != str(cls.VERSION):
            raise OntologyError(f"unsupported ontology version {parts[2]!r}")
        try:
            genline = next(it)
        except StopIteration:
            raise OntologyError("truncated ontology header") from None
        if not genline.startswith("#GENERATED "):
            raise OntologyError(f"bad generated line: {genline!r}")
        try:
            generated_at = float(genline.split(None, 1)[1])
        except ValueError as exc:
            raise OntologyError(f"bad timestamp: {genline!r}") from exc

        doc = cls(kind, generated_at)
        current: Optional[Dict[str, str]] = None
        for lineno, line in enumerate(it, start=3):
            if not line.strip():
                current = None
                continue
            if line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise OntologyError(f"line {lineno}: not key=value: {line!r}")
            if key == "record":
                current = {"record": value}
                doc.records.append(current)
            else:
                if current is None:
                    raise OntologyError(
                        f"line {lineno}: field outside a record: {line!r}")
                if key in current:
                    raise OntologyError(
                        f"line {lineno}: duplicate key {key!r}")
                current[key] = value
        return doc

    # -- file I/O against a simulated filesystem -----------------------------------

    def write_to(self, fs, path: str, now: float = 0.0) -> None:
        fs.write(path, self.render(), now=now)
