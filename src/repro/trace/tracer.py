"""Simulation-time-aware tracing.

A :class:`Tracer` stamps **spans** (timed operations: an agent wake,
one healing action, a DGSPL build) and **instants** (point events: a
fault injection, a detection) with the *simulated* clock, so a trace of
a fault's lifecycle reads in the same time base as the downtime ledger
and the paper's figures.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Every simulator carries
   :data:`NULL_TRACER` by default; ``tracer.enabled`` is the one check
   hot paths make, and ``span()`` on a disabled tracer returns a shared
   no-op singleton -- no allocation, no timestamping.
2. **Nestable.**  Spans opened while another span is active record it
   as their parent, so one agent wake becomes a tree:
   ``agent.run > diagnose > heal.restart_app``.
3. **Correlated.**  The fault injector allocates a ``fault_id`` per
   injected fault and registers the target with the tracer; agent-side
   spans look the afflicted subject up and carry the same id, which is
   what stitches detection, diagnosis and repair into one incident
   trace (see :mod:`repro.trace.export`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.persist.core import (Persistent, QuiescenceError, part, rows,
                                scalar, via)
from repro.trace.metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "NULL_SPAN", "NULL_TRACER", "install_tracer"]


class Span:
    """One timed operation.

    Usable as a context manager or via explicit :meth:`finish`;
    ``start``/``end`` are simulated seconds, ``end`` is ``None`` while
    the span is open.
    """

    __slots__ = ("tracer", "name", "start", "end", "attrs", "parent")

    def __init__(self, tracer: "Tracer", name: str, start: float,
                 attrs: Dict[str, Any], parent: Optional["Span"]):
        self.tracer = tracer
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.parent = parent

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def finish(self, **attrs: Any) -> None:
        """Close the span at the current simulated time.  Idempotent."""
        if self.end is None:
            if attrs:
                self.attrs.update(attrs)
            self.end = self.tracer.now
            self.tracer._finished(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def __repr__(self) -> str:
        dur = "open" if self.end is None else f"{self.end - self.start:.3f}s"
        return f"<Span {self.name} t={self.start:.3f} {dur} {self.attrs}>"


class _NullSpan:
    """The shared no-op span handed out by disabled tracers."""

    __slots__ = ()
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    parent = None

    def set_attr(self, key: str, value: Any) -> "_NullSpan":
        return self

    def finish(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class Tracer(Persistent):
    """Span/instant recorder plus the metrics registry.

    ``sim`` supplies the clock; a simless tracer (model-sampled
    experiments like MTTR) relies on :meth:`record_span`'s explicit
    timestamps.
    """

    #: the full record -- spans, instants, correlations and metrics --
    #: so chaos reports and incident reconciliation built after a
    #: restore are byte-identical to the uninterrupted run
    _persist = (
        scalar("enabled", bool),
        scalar("next_fault_seq", int, "_fault_seq"),
        # insertion order is load-bearing: fault_id_for answers with
        # the first-bound key a subject is a suffix of
        scalar("correlations", dict, "_correlations", dict),
        via("spans", "_save_spans", "_load_spans"),
        rows("instants",
             lambda row: {"name": row[0], "ts": float(row[1]),
                          "args": dict(row[2])},
             lambda i: [i["name"], i["ts"], dict(i["args"])]),
        part("metrics"))

    #: also span every generator-process resume (verbose; off so an
    #: enabled tracer stays affordable on long runs)
    capture_resumes = False

    def __init__(self, sim=None, *, enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.spans: List[Span] = []
        self.instants: List[dict] = []
        self._stack: List[Span] = []
        self._correlations: Dict[str, str] = {}
        #: "/"-suffix of a correlated key -> the first-bound such key
        #: (derived from ``_correlations``; rebuilt on restore)
        self._suffix_keys: Dict[str, str] = {}
        # plain int so checkpoints can capture and restore it
        self._fault_seq = 1

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        if self.sim is not None:
            return self.sim.now
        return 0.0

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span at the current simulated time."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        sp = Span(self, name, self.now, attrs, parent)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def record_span(self, name: str, start: float, end: float,
                    **attrs: Any):
        """Record an already-complete span with explicit timestamps
        (used by model-sampled pipelines where phase durations are
        drawn, not lived through)."""
        if not self.enabled:
            return NULL_SPAN
        sp = Span(self, name, float(start), attrs, None)
        sp.end = float(end)
        self.spans.append(sp)
        return sp

    def _finished(self, sp: Span) -> None:
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()
        else:       # closed out of order: drop it from wherever it sits
            try:
                self._stack.remove(sp)
            except ValueError:
                pass

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a point event at the current simulated time."""
        if not self.enabled:
            return
        self.instants.append({"name": name, "ts": self.now, "args": attrs})

    # -- fault correlation ---------------------------------------------------

    def new_fault_id(self) -> str:
        seq, self._fault_seq = self._fault_seq, self._fault_seq + 1
        return f"F{seq:04d}"

    def correlate(self, target: str, fault_id: str) -> None:
        """Bind an injection target to a fault id.  The target is also
        indexed under its leaf name (``host/app`` -> ``app``,
        ``host:/mount`` -> ``/mount``) because agent findings name the
        local subject, not the site-wide path."""
        self._bind(target, fault_id)
        leaf = target.rpartition("/")[2]
        if leaf != target:
            self._bind(leaf, fault_id)
        host, sep, mount = target.partition(":")
        if sep:
            self._bind(mount, fault_id)
            if host not in self._correlations:
                self._bind(host, fault_id)

    def _bind(self, key: str, fault_id: str) -> None:
        """A key is indexed when first bound; re-binding it keeps its
        place in the order and takes the new id."""
        if key not in self._correlations:
            self._index_suffixes(key)
        self._correlations[key] = fault_id

    def _index_suffixes(self, key: str) -> None:
        start = key.find("/") + 1
        while start:
            self._suffix_keys.setdefault(key[start:], key)
            start = key.find("/", start) + 1

    def fault_id_for(self, subject: str) -> str:
        """The fault id correlated with a subject -- bound to it, or
        to the first-bound key ending in ``/subject`` -- or ``""``."""
        fid = self._correlations.get(subject)
        if fid is not None:
            return fid
        key = self._suffix_keys.get(subject)
        return self._correlations[key] if key is not None else ""

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._suffix_keys = {}
        for key in self._correlations:
            self._index_suffixes(key)

    # -- queries -------------------------------------------------------------

    def spans_named(self, name: str, **attr_filter: Any) -> List[Span]:
        """Finished spans matching a name and attribute values."""
        out = []
        for sp in self.spans:
            if sp.name != name or sp.end is None:
                continue
            if all(sp.attrs.get(k) == v for k, v in attr_filter.items()):
                out.append(sp)
        return out

    # -- persistence ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Refuses to snapshot mid-operation: the open-span stack must
        be empty."""
        if self._stack:
            raise QuiescenceError(
                f"cannot snapshot tracer with {len(self._stack)} open "
                f"span(s): {[sp.name for sp in self._stack]}")
        return super().snapshot_state()

    def _save_spans(self) -> list:
        """Parents are encoded as indices into the span list."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [[sp.name, sp.start, sp.end, dict(sp.attrs),
                 index.get(id(sp.parent))] for sp in self.spans]

    def _load_spans(self, saved: list) -> None:
        self.spans = []
        self._stack = []
        for name, start, end, attrs, parent_idx in saved:
            parent = self.spans[parent_idx] if parent_idx is not None else None
            sp = Span(self, name, float(start), dict(attrs), parent)
            sp.end = None if end is None else float(end)
            self.spans.append(sp)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<Tracer {state} spans={len(self.spans)} "
                f"instants={len(self.instants)}>")


#: The disabled tracer every Simulator starts with.  Shared and inert:
#: ``span()`` returns :data:`NULL_SPAN`, ``instant()`` is a no-op, and
#: instrumentation guards metric updates behind ``tracer.enabled``.
NULL_TRACER = Tracer(enabled=False)


def install_tracer(sim, **kwargs: Any) -> Tracer:
    """Create a tracer bound to a simulator and attach it, so every
    instrumented component reached from that simulator reports in."""
    tracer = Tracer(sim, **kwargs)
    sim.tracer = tracer
    return tracer
