"""The declared-state derivation (:mod:`repro.persist.core`) against
its own declarations and against hostile input.

Three guards: a *lint* over every class that declares ``_persist``
entries, and over what product code reads of them; *hostile
documents* -- every component kind of a real faulted site and a real
federation must refuse a document with a key or a child too few or
too many, by name, before it is touched; and *corrupt files* --
``CheckpointManager.load`` must refuse a file that is not the document
that was written.
"""

import ast
import functools
import importlib
import inspect
import json
import pkgutil

import pytest

from repro.experiments.runner import FidelityHarness
from repro.persist import (CheckpointManager, canonical_json,
                           restore_federation, restore_site)
from repro.persist.core import Persistent

from tests.test_persist_golden import (faulted_site_snapshot,
                                       federation_snapshot)
from tests.test_surface import _product_files


# -- (a) spec lint -----------------------------------------------------------

def _declaring_classes():
    """Every Persistent subclass in ``repro``: each of its modules is
    imported first, so what is linted does not depend on what earlier
    test files happened to import."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    seen, todo = [], [Persistent]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def _flatten(cls, entries, prefix=""):
    """``(path, entry)`` for the entries and every group's below."""
    for e in entries:
        yield prefix + e.key, e
        if e.sub is not None:
            sub = getattr(cls, e.sub) if isinstance(e.sub, str) else e.sub
            yield from _flatten(cls, sub, f"{prefix}{e.key}.")


@pytest.mark.parametrize("cls", _declaring_classes(),
                         ids=lambda c: c.__qualname__)
def test_declaration_is_well_formed(cls):
    assert cls._persist, f"{cls.__qualname__} declares no state"
    paths = [path for path, _e in _flatten(cls, cls._persist)]
    assert len(paths) == len(set(paths)), f"duplicate keys in {paths}"
    for path, e in _flatten(cls, cls._persist):
        for name in e.methods:
            assert callable(getattr(cls, name, None)), (
                f"{cls.__qualname__}.{path} names {name!r}, which is "
                f"not a method of the class")
    if not cls.__dictoffset__:
        # slotted: an attribute a load assigns must be a slot (or another
        # settable descriptor), or the restore dies on AttributeError
        for path, e in _flatten(cls, cls._persist):
            if e.sets is not None and "." not in e.sets:
                assert hasattr(inspect.getattr_static(cls, e.sets, None),
                               "__set__"), (
                    f"{cls.__qualname__}.{path} assigns {e.sets!r}, which "
                    f"is not a slot of the class")
    hand_written = [name for name in ("snapshot_state", "restore_state",
                                      "claimed_seqs")
                    if any(name in vars(k) for k in cls.__mro__
                           if k is not Persistent and k is not object)]
    assert len(hand_written) < 3, (
        f"{cls.__qualname__} declares entries *and* hand-writes "
        f"{hand_written}: one or the other")


@functools.lru_cache(maxsize=None)
def _read_attributes():
    """Every attribute name a product file loads: ``x.name`` read, not
    assigned (``x.name = ...`` and ``x.name += 1`` store), or
    ``getattr(x, "name")``."""
    names = set()
    for path in _product_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "getattr" \
                    and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                names.add(node.args[1].value)
    return frozenset(names)


@pytest.mark.parametrize("cls", _declaring_classes(),
                         ids=lambda c: c.__qualname__)
def test_every_declared_member_is_read_by_product_code(cls):
    """A member a checkpoint carries is state the program reads back:
    one only ever assigned or incremented is a counter nothing shows,
    paid for on every hot path and in every checkpoint.  Pending-event
    entries are exempt -- the kernel reads an armed event.  By name, so
    a member some other class's same-named attribute is read for
    passes."""
    read = _read_attributes()
    unread = [f"{path} ({e.sets})" for path, e in _flatten(cls, cls._persist)
              if e.sets is not None and e.claims is None
              and e.sets.rpartition(".")[2] not in read]
    assert not unread, (f"{cls.__qualname__} persists members no product "
                        f"code reads: {', '.join(unread)}")


def test_a_record_with_a_list_valued_field_is_refused():
    """A row shares its record's field values, so a list there would
    alias a live record from the document: ``record`` refuses it."""
    import dataclasses
    from typing import List
    from repro.persist.core import record

    @dataclasses.dataclass
    class Listed:
        name: str
        notes: List[str] = dataclasses.field(default_factory=list)
    with pytest.raises(TypeError, match="Listed"):
        record(Listed)


def test_the_lint_sees_the_whole_site():
    names = {c.__qualname__ for c in _declaring_classes()}
    assert {"Host", "Nic", "Application", "Database", "Intelliagent",
            "StatusAgent", "AdministrationServers", "ConditionLedger",
            "FaultInjector", "GeoTrafficDriver", "_EpisodeBook",
            "Periodic", "Simulator", "AlertManager", "TelemetryHub",
            "WakePolicy", "Nic"} <= names


# -- (b) hostile documents ---------------------------------------------------

def _recorded_restore(restore):
    """Run one real restore with ``Persistent.restore_state`` wrapped:
    ``class name -> (component, the document it was handed)`` for the
    first instance of every derived component kind present."""
    seen = {}
    real = Persistent.restore_state

    def recording(self, state):
        seen.setdefault(type(self).__name__, (self, state))
        real(self, state)
    Persistent.restore_state = recording
    try:
        restore()
    finally:
        Persistent.restore_state = real
    return seen


@pytest.fixture(scope="module")
def kinds():
    """Out of one real restore of a faulted site (harness extras and
    tracer included) and of a 3-site federation after a site loss."""
    from repro.federation import build_federation, three_site_config
    site_doc, fed_doc = faulted_site_snapshot(), federation_snapshot()
    fed = build_federation(three_site_config(population=60_000))
    seen = _recorded_restore(lambda: (FidelityHarness.resume(site_doc),
                                      restore_federation(fed_doc, fed=fed)))
    assert len(seen) >= 40, sorted(seen)
    return seen


def _refused(component, doc, *needles):
    """``component.restore_state(doc)`` must raise a typed error whose
    message carries every needle, and leave the component as it was."""
    before = canonical_json(component.snapshot_state())
    try:
        component.restore_state(doc)
    except (KeyError, ValueError) as exc:
        missing = [n for n in needles if n not in str(exc)]
        if missing:
            return f"error does not name {missing}: {exc}"
    else:
        return "restored without complaint"
    if canonical_json(component.snapshot_state()) != before:
        return "refused, but only after touching the component"
    return None


def test_missing_and_unknown_keys_are_refused_by_name(kinds):
    failures = []
    for name, (component, doc) in sorted(kinds.items()):
        key = sorted(doc)[0]
        cases = {
            f"drop {key!r}": ({k: v for k, v in doc.items() if k != key},
                              key),
            "add 'bogus'": ({**doc, "bogus": 1}, "bogus"),
        }
        for path, e in _flatten(type(component), component._persist):
            if e.sub is not None and doc[e.key]:
                inner = sorted(doc[e.key])[0]
                cases[f"drop {path}.{inner}"] = (
                    {**doc, e.key: {k: v for k, v in doc[e.key].items()
                                    if k != inner}}, inner)
                cases[f"add {path}.bogus"] = (
                    {**doc, e.key: {**doc[e.key], "bogus": 1}}, "bogus")
        for label, (hostile, offender) in cases.items():
            why = _refused(component, hostile, name, offender)
            if why:
                failures.append(f"{name}: {label}: {why}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("kind, key", [
    ("Host", "nics"), ("AgentSuite", "agents"), ("Wan", "links"),
    ("GeoTrafficDriver", "doors")])
def test_missing_and_unknown_children_are_refused_by_name(kinds, kind, key):
    component, doc = kinds[kind]
    children = doc[key]
    gone = sorted(children)[0]
    fewer = {**doc, key: {k: v for k, v in children.items() if k != gone}}
    more = {**doc, key: {**children, "bogus0": children[gone]}}
    assert _refused(component, fewer, kind, key, gone) is None
    assert _refused(component, more, kind, key, "bogus0") is None


def test_a_host_that_lost_its_boot_event_is_not_left_booting(kinds):
    """The parent's ``state.get("boot_event")`` restored such a host
    silently, and it stayed BOOTING forever."""
    host, doc = kinds["Host"]
    hostile = {k: v for k, v in doc.items() if k != "boot_event"}
    hostile["bogus"] = 1
    with pytest.raises(KeyError, match="Host.*boot_event.*bogus"):
        host.restore_state(hostile)


# -- (c) corrupt files -------------------------------------------------------

def _twenty_hosts() -> FidelityHarness:
    from repro.experiments.fullyear import site_config
    from repro.experiments.site import build_site
    return FidelityHarness(build_site(site_config(hosts=20)))


def test_corrupt_checkpoint_files_are_refused_before_anything_is_built(
        tmp_path):
    """A flipped digit, a truncated file and a file without its
    ``state_hash`` each fail in ``CheckpointManager.load`` with a
    ``ValueError`` naming the path -- never as a running world with
    903 events where 503 were processed, never as a bare
    ``JSONDecodeError`` -- and a pre-built target is left as it was."""
    harness = _twenty_hosts()
    harness.run_hours(0.25)
    mgr = CheckpointManager(harness.site, str(tmp_path),
                            extras=harness._extras())
    good = mgr.epoch(force=True)
    with open(good) as fh:
        text = fh.read()
    events = f'"events_processed":{harness.sim.events_processed}'
    assert events in text
    flipped_digit = events[:-1] + str((int(events[-1]) + 4) % 10)
    doc = json.loads(text)
    del doc["state_hash"]
    corrupt = {
        "flipped.json": text.replace(events, flipped_digit),
        "truncated.json": text[:len(text) // 2],
        "hashless.json": canonical_json(doc),
        "not-an-object.json": "[1, 2, 3]",
    }

    target = _twenty_hosts()
    before = target.snapshot()["state_hash"]
    for name, body in corrupt.items():
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(ValueError, match=name) as err:
            FidelityHarness.resume(CheckpointManager.load(str(path)))
        assert not isinstance(err.value, json.JSONDecodeError)
        with pytest.raises(ValueError, match=name):
            restore_site(CheckpointManager.load(str(path)),
                         site=target.site, extras=target._extras())
    with pytest.raises(ValueError, match="state_hash"):
        CheckpointManager.load(str(tmp_path / "flipped.json"))
    with pytest.raises(ValueError, match="state_hash"):
        CheckpointManager.load(str(tmp_path / "hashless.json"))
    assert target.snapshot()["state_hash"] == before

    # the untouched file still loads, and in-memory documents handed
    # straight to a restore are not re-hashed
    assert CheckpointManager.load(good)["state_hash"] == mgr.last_hash
    doc["kernel"]["events_processed"] += 400
    resumed = FidelityHarness.resume(doc | {"state_hash": "stale"})
    assert resumed.sim.events_processed == doc["kernel"]["events_processed"]


def test_hostile_checkpoint_files_are_refused_naming_the_path(tmp_path):
    """A byte that is not UTF-8 (a flip in the high bit), a ``NaN``
    literal (which Python's parser accepts) and a bottomless nest each
    fail in ``CheckpointManager.load`` as the documented ``ValueError``
    naming the path -- not as a bare ``UnicodeDecodeError``, an
    encoder's "Out of range float" or a ``RecursionError``."""
    harness = _twenty_hosts()
    harness.run_hours(0.25)
    mgr = CheckpointManager(harness.site, str(tmp_path),
                            extras=harness._extras())
    with open(mgr.epoch(force=True), "rb") as fh:
        raw = fh.read()
    events = b'"events_processed":%d' % harness.sim.events_processed
    assert events in raw
    hostile = {
        "high-bit.json": raw.replace(b'"kernel"', b'"kerne\xec"'),
        "nan.json": raw.replace(events, b'"events_processed":NaN'),
        "infinity.json": raw.replace(events,
                                     b'"events_processed":-Infinity'),
        "bottomless.json": b"[" * 100_000,
    }
    for name, body in hostile.items():
        assert body != raw
        path = tmp_path / name
        path.write_bytes(body)
        with pytest.raises(ValueError,
                           match=f"{name}: not a checkpoint") as err:
            FidelityHarness.resume(CheckpointManager.load(str(path)))
        assert type(err.value) is ValueError
