"""The uniform persistence protocol and its one implementation.

A *snapshot* is a plain, strictly-JSON-serialisable dict: no live
objects, no tuples-as-keys, no ``inf``/``nan`` (components encode
sentinels as ``None`` before they reach this layer).  The one exception
is a log file's frozen :class:`~repro.metrics.circular_log.Ring`, whose
lines :func:`canonical_json` renders as it encodes the file's piece.
Identity between two world states is therefore decidable by comparing
canonical JSON -- the byte string :func:`canonical_json` produces --
and cheap to assert via :func:`state_hash`.

A component does not write the protocol's methods.  It subclasses
:class:`Persistent` and *declares* its state once, as a class-level
``_persist`` tuple of entries built from the small vocabulary below
(:func:`scalar`, :func:`member`, :func:`sortedset`, :func:`table`,
:func:`pairs`, :func:`rows`, :func:`refs`, :func:`part`,
:func:`children`, :func:`pending`, :func:`pendings`, :func:`group`,
and :func:`via` for what those cannot say).  One entry
names one document key; the tuple's order is the restore order.
``snapshot_state`` / ``restore_state`` / ``claimed_seqs`` are derived
from it here and nowhere else, so a field cannot be saved but not
restored, and a timer cannot be saved but not claimed.  What is *not*
listed is structural wiring the deterministic rebuild recreates --
leaving a field out is the visible decision -- and what is listed is
state product code reads (a lint in ``tests/test_persist_declared.py``
holds every entry to that).

Pending kernel events are never pickled.  A :func:`pending` entry
serialises the heap token ``[time, seq]``, re-arms it on
restore through :meth:`Simulator.schedule_exact`, and claims its seq so
the site walker can prove the whole heap is accounted for.

Restore is strict: a document whose key set differs from the declared
one -- either way -- is refused with an error naming the class and the
keys, before the component is touched.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import gc
import hashlib
import json
from operator import attrgetter
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

__all__ = ["FORMAT_VERSION", "QuiescenceError",
           "canonical_json", "check_format", "state_hash", "seal",
           "discard", "compose", "collector_paused",
           "Persistent", "Entry", "scalar", "scalars", "member", "sortedset",
           "table", "pairs", "rows", "record", "refs", "part", "children",
           "pending", "pendings", "group", "via", "token", "rearm",
           "snapshot_node", "restore_node", "claimed_of",
           "save_state", "load_state"]

#: bump when any component's snapshot layout changes incompatibly
FORMAT_VERSION = 8


def check_format(snapshot: dict, kind: str) -> None:
    """Refuse a snapshot written under another layout, or holding
    another kind of world (``"site"`` / ``"federation"``), before
    anything is built from it."""
    if snapshot.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {snapshot.get('format')!r} != "
            f"supported {FORMAT_VERSION}")
    got = "federation" if "fedconfig" in snapshot else "site"
    if got != kind:
        raise ValueError(
            f"checkpoint holds a {got} document, wanted a {kind} one")


class QuiescenceError(RuntimeError):
    """The world is not at a checkpointable barrier.

    Raised when a snapshot is attempted while some component holds
    in-flight work its snapshot cannot represent (open tracer spans,
    live relocations, unclaimed heap events).  The checkpoint manager
    treats this as "defer to the next epoch", not as failure.
    """


def canonical_json(state: dict) -> str:
    """The canonical byte-comparable rendering of a snapshot.

    ``allow_nan=False`` is the contract tripwire: a component that
    leaks ``inf``/``nan`` into its state dict fails here, at snapshot
    time, instead of producing a checkpoint another json parser cannot
    read back.
    """
    return json.dumps(state, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_ring_lines)


def _ring_lines(value) -> list:
    """A ring's lines, rendered only as its piece is encoded; any other
    object is refused as ``json`` refuses it."""
    from repro.metrics.circular_log import Ring  # repro.metrics imports us
    if type(value) is not Ring:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")
    return list(value)


def state_hash(state: dict) -> str:
    """sha256 of the canonical JSON -- the checkpoint's content hash --
    over the pieces :func:`seal` writes, so a loaded file verifies piece
    by piece and no string of the whole document is made."""
    digest = hashlib.sha256()
    _encode(2, state, lambda piece: digest.update(piece.encode("utf-8")))
    return digest.hexdigest()


def discard(piece: str) -> None:
    """The writer for a hash alone: it keeps no piece."""


def compose(members: Iterable[Tuple[str, Callable]],
            write: Callable[[str], object]) -> None:
    """Canonical JSON composes: ``write`` the rendering of a str-keyed
    object, in pieces, from ``(key, writer of its value's rendering)``
    pairs given in key order."""
    opener = "{"
    for key, value in members:
        write(f"{opener}{json.dumps(key)}:")
        value(write)
        opener = ","
    write("}" if opener == "," else "{}")


def _encode(depth: int, value, write: Callable[[str], object]) -> None:
    """``canonical_json(value)`` to ``write`` in pieces: a str-keyed dict
    is composed ``depth`` levels down -- a document and its members, so
    a piece is one host's or one component's state (json sorts other
    keys by their own order, not as strings)."""
    if depth and isinstance(value, dict) and all(
            isinstance(key, str) for key in value):
        compose(((key, functools.partial(_encode, depth - 1, value[key]))
                 for key in sorted(value)), write)
    else:
        write(canonical_json(value))


def seal(state: dict, encoded: Optional[Mapping[str, Callable]] = None, *,
         write: Callable[[str], object]) -> None:
    """Record ``state``'s :func:`state_hash` in it as ``"state_hash"``
    and hand the sealed document's :func:`canonical_json` to ``write``
    in pieces, every byte encoded once.

    Each piece is fed to one sha256 and written as it is made; only the
    members that sort after ``"state_hash"`` are held until the hash is
    known.  ``encoded`` maps a member the caller writes itself (a
    federation's sites, each sealed on the way) to its writer.
    """
    if "state_hash" in state:
        raise ValueError("document is already sealed")
    encoded = encoded or {}
    digest, held, keys = hashlib.sha256(), [], sorted(state)
    cut = bisect.bisect(keys, "state_hash")
    for n, key in enumerate(keys):
        def hashed(piece: str, out=write if n < cut else held.append):
            digest.update(piece.encode("utf-8"))
            out(piece)
        hashed(f'{"," if n else "{"}{json.dumps(key)}:')
        (encoded.get(key) or functools.partial(_encode, 1, state[key]))(hashed)
    digest.update(b"}" if keys else b"{}")
    state["state_hash"] = digest.hexdigest()
    write(f'{"," if cut else "{"}"state_hash":"{state["state_hash"]}"')
    for n, piece in enumerate(held):    # the hash's member comes first
        write("," + piece[1:] if n == 0 else piece)
    write("}")


def collector_paused(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic collector off and, if it returns,
    move what it built to the oldest generation; hand the collector
    back in the state the caller had it, raise or return.

    For the resume path only -- parse, verify, build, restore: all it
    adds is reachable from the result, so no collection inside it, nor
    a full sweep its "pending" count would set off later, can free an
    object.  The move is ``gc.freeze()`` + ``gc.unfreeze()``, skipped
    while the caller holds frozen objects.  Never on the snapshot side:
    only its sweeps free the world a resume replaced (DESIGN.md)."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = fn(*args, **kwargs)
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            return result
        finally:
            if was_enabled:
                gc.enable()
    return paused


# -- component trees ---------------------------------------------------------
# A *node* is a component, ``None`` (an absent optional layer) or a
# dict of nodes by name.  The site walker's layer table and every
# ``part`` entry go through these three walks.

def snapshot_node(node):
    if node is None:
        return None
    if isinstance(node, dict):
        return {name: snapshot_node(child) for name, child in node.items()}
    return node.snapshot_state()


def restore_node(node, state, where: str) -> None:
    """``where`` names the node in errors: a child map whose names
    differ from the document's -- either way -- is refused whole."""
    if state is None:           # the layer was absent when snapshotted
        return
    if node is None:
        raise ValueError(f"{where}: the snapshot has state for a "
                         f"component the rebuilt world lacks")
    if not isinstance(node, dict):
        node.restore_state(state)
        return
    _check_names(node, state, where)
    for name, child in node.items():
        restore_node(child, state[name], f"{where}/{name}")


def _check_names(node, state, where: str) -> None:
    """A child map's names against the document's, both ways."""
    if isinstance(node, dict) and state is not None \
            and set(node) != set(state):
        raise KeyError(
            f"{where} set mismatch: "
            f"snapshot-only={sorted(set(state) - set(node))} "
            f"build-only={sorted(set(node) - set(state))}")


def claimed_of(node) -> List[int]:
    """The pending-event seqs a node claims ([] when it owns none)."""
    if isinstance(node, dict):
        return [seq for child in node.values() for seq in claimed_of(child)]
    fn = getattr(node, "claimed_seqs", None)
    return list(fn()) if fn is not None else []


# -- heap tokens -------------------------------------------------------------

def token(ev) -> Optional[list]:
    """A pending event as its heap token (None once fired/cancelled)."""
    if ev is None or not ev.alive:
        return None
    return [ev.time, ev.seq]


def rearm(sim, tok, fn, *args):
    """Inverse of :func:`token`: the event back on ``sim``'s heap at its
    exact slot, or None."""
    return None if tok is None else sim.schedule_exact(*tok, fn, *args)


# -- the vocabulary ----------------------------------------------------------

def _setter(path: str) -> Callable:
    """``attrgetter``'s inverse for a dotted path."""
    owner, _, leaf = path.rpartition(".")
    if not owner:
        return lambda obj, value: setattr(obj, leaf, value)
    get = attrgetter(owner)
    return lambda obj, value: setattr(get(obj), leaf, value)


def _same(value):
    return value


class Entry:
    """One piece of a component's state under one document key:
    ``save(obj) -> json``, ``load(obj, json)``, ``claims(obj) -> seqs``.
    ``methods`` are the component methods it calls by name, ``sets``
    the attribute its load assigns (None: it loads into a live object)
    and ``sub`` a group's nested entries (tuple, or the class attribute
    holding it) -- all only so a lint can check a declaration without
    an instance.  ``check(obj, json)`` refuses a document before
    anything is loaded."""

    __slots__ = ("key", "save", "load", "claims", "methods", "sets", "sub",
                 "check")

    def __init__(self, key: str, save: Callable, load: Callable,
                 claims: Optional[Callable] = None, methods=(), sub=None, sets=None,
                 check: Optional[Callable] = None):
        self.key, self.save, self.load, self.claims = key, save, load, claims
        self.methods, self.sets, self.sub = tuple(methods), sets, sub
        self.check = check


def scalar(key: str, coerce: Optional[Callable] = None,
           attr: Optional[str] = None, enc: Callable = _same) -> Entry:
    """A value at ``attr`` (a dotted path; default: the key): ``enc``
    on the way out, ``coerce`` on the way back in.  No ``coerce`` keeps
    it as read -- for nullable stamps."""
    coerce = coerce or _same
    get, put = attrgetter(attr or key), _setter(attr or key)
    return Entry(key, get if enc is _same else lambda obj: enc(get(obj)),
                 lambda obj, v: put(obj, coerce(v)), sets=attr or key)


def scalars(coerce: Optional[Callable], *keys: str) -> tuple:
    """One :func:`scalar` per key, all of one type."""
    return tuple(scalar(key, coerce) for key in keys)


def member(key: str, cls) -> Entry:
    """An enum member, saved as its value."""
    return scalar(key, cls, enc=attrgetter("value"))


def sortedset(key: str, dec: Callable = _same, enc: Callable = _same,
              attr: Optional[str] = None) -> Entry:
    """A set of strings (or of ``enc``-able members), saved sorted."""
    return scalar(key, lambda v: {dec(x) for x in v}, attr,
                  lambda s: [enc(x) for x in sorted(s)])


def pairs(key: str, dec: Callable = _same, enc: Callable = _same,
          attr: Optional[str] = None) -> Entry:
    """A tuple-keyed dict as a key-sorted ``[[*key], value]`` list (the
    control plane keys on ``(host, agent)``; JSON keys are strings)."""
    return scalar(key, lambda v: {tuple(k): dec(x) for k, x in v}, attr,
                  lambda d: [[list(k), enc(x)] for k, x in sorted(d.items())])


def table(key: str, dec: Callable = _same, enc: Callable = _same,
          attr: Optional[str] = None) -> Entry:
    """A str-keyed dict, saved in key order.  Loaded *into* the live
    dict, so a ``defaultdict`` stays one."""
    get = attrgetter(attr or key)

    def load(obj, value):
        live = get(obj)
        live.clear()
        live.update((k, dec(v)) for k, v in value.items())
    return Entry(key, lambda obj: {k: enc(v) for k, v
                                   in sorted(get(obj).items())}, load)


def rows(key: str, dec: Callable = _same, enc: Callable = _same,
         attr: Optional[str] = None) -> Entry:
    """A sequence in its own order: ``enc`` flattens a record to a JSON
    row, ``dec`` is the record's constructor.  Loaded *into* the live
    list or deque, so a ring keeps its bound."""
    get = attrgetter(attr or key)

    def load(obj, value):
        live = get(obj)
        live.clear()
        live.extend(dec(x) for x in value)
    return Entry(key, lambda obj: [enc(x) for x in get(obj)], load)


def record(cls) -> tuple:
    """``(dec, enc)`` for :func:`rows` / :func:`table` over a dataclass
    saved as one row in field order.  A list-valued field is refused:
    the row would share it, so a document could alias a live record."""
    fields = dataclasses.fields(cls)
    if any(f.default_factory is list for f in fields):
        raise TypeError(f"{cls.__name__}: a record holds no list")
    get = attrgetter(*(f.name for f in fields))
    return (lambda row: cls(*row)), (lambda rec: list(get(rec)))


def refs(key: str, attr: str, into: str) -> Entry:
    """A name -> record dict whose records are members of the list at
    ``into``, saved as positions in it so identity survives the round
    trip; ``into``'s entry loads first."""
    get, put, records = attrgetter(attr), _setter(attr), attrgetter(into)

    def save(obj):
        index = {id(rec): i for i, rec in enumerate(records(obj))}
        return {name: index[id(rec)] for name, rec in get(obj).items()}

    def load(obj, value):
        held = records(obj)
        put(obj, {name: held[int(i)] for name, i in value.items()})
    return Entry(key, save, load, sets=attr)


def part(key: str, get=None) -> Entry:
    """A nested node: a component, an optional one, or a name -> node
    dict checked two-sidedly.  ``get`` is the attribute (default: the
    key) or a ``component -> node`` function."""
    get = get if callable(get) else attrgetter(get or key)
    return Entry(
        key, lambda obj: snapshot_node(get(obj)),
        lambda obj, v: restore_node(get(obj), v,
                                    f"{type(obj).__name__}.{key}"),
        lambda obj: claimed_of(get(obj)),
        check=lambda obj, v: _check_names(get(obj), v,
                                         f"{type(obj).__name__}.{key}"))


def children(key: str, attr: str, make: Callable) -> Entry:
    """A str-keyed dict of components created on first use, so the
    document decides which exist: each is saved as its own document in
    key order, and loaded into ``make(obj, name)``, which creates the
    child and files it under ``name`` in the emptied dict."""
    get, put = attrgetter(attr), _setter(attr)

    def load(obj, value):
        put(obj, {})
        for name, state in value.items():
            make(obj, name).restore_state(state)
    return Entry(key, lambda obj: snapshot_node(dict(sorted(
        get(obj).items()))), load, sets=attr)


def pending(key: str, attr: str, callback: str) -> Entry:
    """One pending kernel event held at ``attr``, fired into the method
    named ``callback``.  Load cancels whatever the fresh build armed,
    then re-arms the saved token on ``obj.sim``."""
    def load(obj, tok):
        live = getattr(obj, attr)
        if live is not None:
            live.cancel()
        setattr(obj, attr, rearm(obj.sim, tok, getattr(obj, callback)))

    def claims(obj):
        ev = getattr(obj, attr)
        return [ev.seq] if ev is not None and ev.alive else []
    return Entry(key, lambda obj: token(getattr(obj, attr)), load, claims,
                 methods=(callback,), sets=attr)


def pendings(key: str, attr: str, callback: str, dec: Callable = _same,
             enc: Callable = _same) -> Entry:
    """A list of ``(event, arg)`` pairs, each event calling
    ``callback(arg)``; saved as ``[[token, enc(arg)], ...]``."""
    def live(obj):
        return [(ev, arg) for ev, arg in getattr(obj, attr) if ev.alive]

    def load(obj, value):
        for ev, _arg in getattr(obj, attr):
            ev.cancel()
        fn, armed = getattr(obj, callback), []
        for tok, arg in value:
            arg = dec(arg)
            armed.append((rearm(obj.sim, tok, fn, arg), arg))
        setattr(obj, attr, armed)
    return Entry(
        key, lambda obj: [[token(ev), enc(arg)] for ev, arg in live(obj)],
        load, lambda obj: [ev.seq for ev, _arg in live(obj)],
        methods=(callback,), sets=attr)


def group(key: str, sub) -> Entry:
    """Entries of the same component nested under one sub-dict.  ``sub``
    is the tuple, or the name of the class attribute holding it -- which
    is how subclasses extend a base class's document (``"extra"``)."""
    return Entry(key, lambda obj: save_state(obj, _sub(obj, sub)),
                 lambda obj, v: _load(obj, _sub(obj, sub), v),
                 lambda obj: _claims(obj, _sub(obj, sub)), sub=sub)


def _sub(obj, sub) -> tuple:
    return getattr(type(obj), sub) if isinstance(sub, str) else sub


def via(key: str, save: str, load: str) -> Entry:
    """The escape hatch: ``obj.<save>() -> json`` / ``obj.<load>(json)``
    for state the vocabulary cannot express (object identity, derived
    indexes, order that is behaviour)."""
    return Entry(key, lambda obj: getattr(obj, save)(),
                 lambda obj, v: getattr(obj, load)(v), methods=(save, load))


# -- the derivation ----------------------------------------------------------

def save_state(obj, entries) -> dict:
    return {e.key: e.save(obj) for e in entries}


def _check(obj, entries, state) -> None:
    """Both ways, groups and a part's child names included, before
    anything is loaded."""
    want = {e.key for e in entries}
    got = set(state) if isinstance(state, dict) else {"<not an object>"}
    if got != want:
        raise KeyError(
            f"{type(obj).__name__}: snapshot keys do not match the "
            f"declared state: missing={sorted(want - got)} "
            f"unknown={sorted(got - want)}")
    for e in entries:
        if e.sub is not None:
            _check(obj, _sub(obj, e.sub), state[e.key])
        if e.check is not None:
            e.check(obj, state[e.key])


def _load(obj, entries, state) -> None:
    for e in entries:
        e.load(obj, state[e.key])


def load_state(obj, entries, state) -> None:
    """Check ``state``'s key set against ``entries``, then load each
    in declaration order."""
    _check(obj, entries, state)
    _load(obj, entries, state)


def _claims(obj, entries) -> List[int]:
    return [seq for e in entries if e.claims is not None
            for seq in e.claims(obj)]


class Persistent:
    """Derives ``snapshot_state`` / ``restore_state`` /
    ``claimed_seqs`` from ``_persist``.

    A subclass that must refuse non-quiescent moments overrides
    ``snapshot_state`` with its guard and calls ``super()``."""

    __slots__ = ()
    #: the component's state, one entry per document key, restore order
    _persist: tuple = ()

    def snapshot_state(self) -> dict:
        return save_state(self, self._persist)

    def restore_state(self, state: dict) -> None:
        load_state(self, self._persist, state)

    def claimed_seqs(self) -> List[int]:
        return _claims(self, self._persist)
