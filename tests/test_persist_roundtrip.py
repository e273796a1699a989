"""Unit coverage for :mod:`repro.persist`: the codec, the quiescence
gate, the checkpoint files, and the restore-time mismatch checks.

The end-to-end byte-identity guarantee lives in
``tests/integration/test_persist_contract.py``; these tests pin the
sharp edges each piece promises on its own.
"""

import gzip
import importlib
import json
import math
import os
import pkgutil
import sys

import pytest

import repro.experiments
import repro.federation
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.persist import (FORMAT_VERSION, CheckpointManager,
                           QuiescenceError, canonical_json, snapshot_site,
                           state_hash)
from repro.persist.checkpoint import rss_mb
from repro.persist.core import discard


#: real checkpoints of earlier layouts, by format number: the first
#: epoch of the ``wake-adversarial`` corpus episode (a federation of
#: one), written by ``repro-exp chaos replay
#: tests/corpus/wake-adversarial.json --checkpoint-dir DIR`` at the last
#: commit of each format -- c8764d4 for format 2 (its hub still
#: mirrored registry counters and its notification channel still
#: carried suppression books), b63c0f4 for format 3 (its config still
#: held nine single-valued fields and its RNG the ``site.manual``
#: stream), fe34341 for format 4 (its heap tokens still carried a
#: priority and its hosts and applications their signals' counters),
#: e94b389 for format 5 (its admin pair still kept every sweep
#: decision twice and its components counters nothing reads),
#: 424e0c8 for format 6 (its name service, front doors, wake policies,
#: trigger buses and geo traffic driver still carried counters only
#: same-named members of other classes are read for, and its RNG the
#: never-drawn ``site.build`` stream) and 412503d for format 7 (its
#: tracers and trigger buses still carried an ``enabled`` flag that was
#: always true, and its status agents a profile count)
OLD_CHECKPOINTS = {
    n: os.path.join(os.path.dirname(__file__), "golden",
                    f"format{n}-checkpoint.json.gz") for n in range(2, 8)}
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _site(**kw):
    defaults = dict(seed=0, with_workload=False)
    defaults.update(kw)
    return build_site(SiteConfig.test_scale(**defaults))


# -- codec ---------------------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert state_hash({"b": 1, "a": 2}) == state_hash({"a": 2, "b": 1})


def test_canonical_json_trips_on_non_finite_floats():
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"bad": float("inf")})


# -- snapshot gate -------------------------------------------------------------


def test_snapshot_declares_format_version():
    site = _site()
    site.run(3600.0)
    snap = snapshot_site(site)
    assert snap["format"] == FORMAT_VERSION
    assert canonical_json(snap)        # whole snapshot is JSON-clean


def test_snapshot_refuses_workload_configs():
    site = _site(with_workload=True)
    with pytest.raises(QuiescenceError):
        snapshot_site(site)


def test_snapshot_refuses_a_world_its_config_cannot_rebuild():
    """A restore rebuilds the world from its config's host rows, so a
    site built from other rows is refused at the seal, naming the first
    host that differs, before a piece is written."""
    from repro.experiments.site import HostRow, site_hosts
    from repro.persist.site_state import sealed_site
    config = SiteConfig.test_scale(with_workload=False)
    fleet = [HostRow(f"w{i:04d}", "linux-x86", "db", ("public0",),
                     (("db", f"oracle_w{i:04d}", {}),)) for i in range(3)]
    no_gateway = list(site_hosts(config))[:-1]
    for rows, first in ((fleet, "w0000"), (no_gateway, "reuters-gw")):
        written = []
        with pytest.raises(ValueError, match=f"host '{first}' differs"):
            sealed_site(build_site(config, rows), write=written.append)
        assert written == []


def test_snapshot_state_hash_covers_everything_else():
    site = _site()
    site.run(1800.0)
    snap = snapshot_site(site)
    recorded = snap.pop("state_hash")
    assert state_hash(snap) == recorded


# -- restore mismatch checks ---------------------------------------------------


def test_restore_rejects_other_format_versions():
    from repro.persist import restore_site
    site = _site()
    site.run(600.0)
    snap = snapshot_site(site)
    snap["format"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError):
        restore_site(snap)


def test_format_1_checkpoint_is_refused_before_anything_is_built(tmp_path):
    """A document written before the control-plane option was deleted
    (format 1: ``config.control_plane``, two mismatch counters in the
    admin block) fails on the format check itself -- never as a
    ``SiteConfig(**...)`` TypeError, never half-way into a live site."""
    from repro.persist import restore_site
    harness = FidelityHarness(_site())
    harness.run_hours(0.25)
    doc = harness.snapshot()
    doc["format"] = 1
    doc["config"]["control_plane"] = "paired"
    for gone in ("wake_seen", "dropped"):
        del doc["admin"][gone]
    doc["admin"].update(sweep_mismatches=0, dgspl_mismatches=0)
    path = tmp_path / "ckpt-v1.json"
    path.write_text(canonical_json(doc))
    loaded = CheckpointManager.load(str(path))

    with pytest.raises(ValueError, match="checkpoint format 1"):
        restore_site(loaded)
    with pytest.raises(ValueError, match="checkpoint format 1"):
        FidelityHarness.resume(loaded)
    # a pre-built target is left exactly as it was
    target = FidelityHarness(_site())
    before = target.snapshot()["state_hash"]
    with pytest.raises(ValueError, match="checkpoint format 1"):
        restore_site(loaded, site=target.site, extras=target._extras())
    assert target.snapshot()["state_hash"] == before


def _old_checkpoint(tmp_path, n):
    """The format-``n`` fixture as a checkpoint file, and its federation
    and site documents."""
    fed_path = tmp_path / f"ep-format{n}.json"
    with gzip.open(OLD_CHECKPOINTS[n], "rb") as fh:
        fed_path.write_bytes(fh.read())
    fed_doc = CheckpointManager.load(str(fed_path))
    return fed_path, fed_doc, fed_doc["sites"]["london"]


def _refused_build(*_args, **_kw):
    raise AssertionError("a world was built from a refused document")


def _refuse_builds(monkeypatch):
    """Stub both world builders.  A module first imported while the
    stub is live would bind it for good (``from ... import
    build_site``), so every module that may bind one is imported
    first."""
    for package in (repro.experiments, repro.federation):
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + "."):
            importlib.import_module(info.name)
    monkeypatch.setattr("repro.experiments.site.build_site", _refused_build)
    monkeypatch.setattr("repro.federation.build.build_federation",
                        _refused_build)
    monkeypatch.setattr("repro.federation.build_federation", _refused_build)


@pytest.fixture(autouse=True)
def _no_module_keeps_the_stub():
    """After each test (and its monkeypatch undo), no ``repro`` module
    holds the refused-build stub: a later test file must see the real
    builders whatever order the suite runs in."""
    yield
    leaked = sorted(f"{name}.{attr}"
                    for name, module in list(sys.modules.items())
                    if name.startswith("repro.")
                    for attr, value in vars(module).items()
                    if value is _refused_build)
    assert not leaked, f"the refused-build stub outlived its test: {leaked}"


def test_format_2_checkpoint_is_refused_by_its_number(tmp_path,
                                                     monkeypatch):
    _refused_by_its_number(tmp_path, monkeypatch, 2)


def test_format_3_checkpoint_is_refused_by_its_number(tmp_path,
                                                     monkeypatch):
    _refused_by_its_number(tmp_path, monkeypatch, 3)


def test_format_4_checkpoint_is_refused_by_its_number(tmp_path,
                                                     monkeypatch):
    _refused_by_its_number(tmp_path, monkeypatch, 4)


def test_format_5_checkpoint_is_refused_by_its_number(tmp_path,
                                                     monkeypatch):
    _refused_by_its_number(tmp_path, monkeypatch, 5)


def test_format_6_checkpoint_is_refused_by_its_number(tmp_path,
                                                     monkeypatch):
    _refused_by_its_number(tmp_path, monkeypatch, 6)


def test_format_7_checkpoint_is_refused_by_its_number(tmp_path,
                                                     monkeypatch):
    _refused_by_its_number(tmp_path, monkeypatch, 7)


def _refused_by_its_number(tmp_path, monkeypatch, n):
    """An earlier format's checkpoint -- the federation document and
    the site document inside it -- is refused by its number at every
    entry point: the two restores, the harness resume, ``fig2 --resume``
    and ``chaos replay --from-checkpoint``.  Nothing is built first and
    a pre-built site or federation is left exactly as it was."""
    from repro.cli import main
    from repro.federation import build_federation, three_site_config
    from repro.persist import (restore_federation, restore_site,
                               sealed_federation)
    fed_path, fed_doc, site_doc = _old_checkpoint(tmp_path, n)
    assert fed_doc["format"] == site_doc["format"] == n
    site_path = tmp_path / f"ckpt-format{n}.json"
    site_path.write_text(json.dumps(site_doc))

    target = FidelityHarness(_site())
    site_before = target.snapshot()["state_hash"]
    fed = build_federation(three_site_config(population=60_000))
    fed_before = sealed_federation(fed, write=discard)["state_hash"]
    _refuse_builds(monkeypatch)

    refused = f"checkpoint format {n} != supported {FORMAT_VERSION}"
    for doc in (site_doc, fed_doc):
        with pytest.raises(ValueError, match=refused):
            restore_site(doc)
        with pytest.raises(ValueError, match=refused):
            FidelityHarness.resume(doc)
    with pytest.raises(ValueError, match=refused):
        restore_site(site_doc, site=target.site, extras=target._extras())
    with pytest.raises(ValueError, match=refused):
        restore_federation(fed_doc, fed=fed)
    with pytest.raises(ValueError, match=refused):
        main(["fig2", "--resume", str(site_path), "--hours", "2",
              "--segments", "2", "--checkpoint-dir", str(tmp_path / "ck")])
    with pytest.raises(ValueError, match=refused):
        main(["chaos", "replay",
              os.path.join(CORPUS, "wake-adversarial.json"),
              "--from-checkpoint", str(fed_path)])
    monkeypatch.undo()

    assert target.snapshot()["state_hash"] == site_before
    assert sealed_federation(fed, write=discard)["state_hash"] == fed_before
    assert not (tmp_path / "ck").exists()


def test_a_config_the_restore_cannot_build_is_refused_by_name(
        tmp_path, monkeypatch):
    """A site document whose config is not :class:`SiteConfig`'s field
    set -- here the format-3 fixture relabelled as the current format,
    so the number check passes -- is a ``ValueError`` naming the
    unknown and missing fields, and nothing is built first."""
    from repro.persist import restore_site
    _path, _fed_doc, doc = _old_checkpoint(tmp_path, 3)
    doc["format"] = FORMAT_VERSION
    doc["config"]["bogus"] = 1
    del doc["config"]["observe"]
    _refuse_builds(monkeypatch)

    named = (r"unknown=\['agent_period', 'bogus', 'manual_targeting', "
             r"'wake_max_period', 'with_feeds'\] missing=\['observe'\]")
    with pytest.raises(ValueError, match=named):
        restore_site(doc, extras=dict.fromkeys(doc["extras"]))
    with pytest.raises(ValueError, match=named):
        FidelityHarness.resume(doc)


def test_wrong_kind_of_document_is_refused_before_anything_is_built(
        tmp_path):
    """A federation document is not a site document and vice versa:
    each restore names the kind it got and the kind it wanted, and a
    pre-built target is left exactly as it was."""
    from repro.chaos.executor import run_episode
    from repro.chaos.scenario import build_corpus
    from repro.federation import build_federation, three_site_config
    from repro.persist import (restore_federation, restore_site,
                               sealed_federation)
    harness = FidelityHarness(_site())
    harness.run_hours(0.25)
    site_doc = harness.snapshot()
    fed = build_federation(three_site_config(population=60_000))
    fed_doc = sealed_federation(fed, write=discard)

    wants_site = "holds a federation document, wanted a site one"
    with pytest.raises(ValueError, match=wants_site):
        restore_site(fed_doc)
    with pytest.raises(ValueError, match=wants_site):
        FidelityHarness.resume(fed_doc)
    with pytest.raises(ValueError, match=wants_site):
        restore_site(fed_doc, site=harness.site, extras=harness._extras())
    assert harness.snapshot()["state_hash"] == site_doc["state_hash"]

    wants_fed = "holds a site document, wanted a federation one"
    with pytest.raises(ValueError, match=wants_fed):
        restore_federation(site_doc, fed=fed)
    assert sealed_federation(fed, write=discard)["state_hash"] \
        == fed_doc["state_hash"]

    # an episode checkpoint written before single-site episodes ran in
    # a federation of one is such a site document
    path = tmp_path / "ep-old.json"
    path.write_text(canonical_json(site_doc))
    with pytest.raises(ValueError, match=wants_fed):
        run_episode(build_corpus(0)["cascade"], from_checkpoint=str(path))


def test_restore_rejects_missing_extras():
    from repro.persist import restore_site
    harness = FidelityHarness(_site())
    harness.run_hours(0.25)
    snap = harness.snapshot()          # carries downtime + injector
    fresh = _site()
    with pytest.raises(KeyError):
        restore_site(snap, site=fresh)  # no extras offered


def test_restore_rejects_config_mismatch():
    from repro.persist import restore_site
    site = _site(seed=1)
    site.run(600.0)
    snap = snapshot_site(site)
    other = _site(seed=2)
    with pytest.raises(ValueError):
        restore_site(snap, site=other)


# -- measurement history ---------------------------------------------------------


def _cpu_idle_timelines(harness):
    out = {}
    for name, suite in sorted(harness.site.suites.items()):
        ts = suite.perf.timeline("os", "cpu_idle")
        out[name] = (ts.times.tolist(), ts.values.tolist())
    return out


def test_resumed_timelines_equal_the_uninterrupted_run():
    """The sampler history lives on the host filesystem the checkpoint
    carries, so a resumed site answers ``timeline()`` with every sample
    the uninterrupted one holds -- right after the restore (when the
    read must not touch the world either) and two hours on."""
    mono = FidelityHarness(_site())
    mono.run_hours(6.0)
    doc = json.loads(canonical_json(mono.snapshot()))
    twin = FidelityHarness.resume(doc)

    want = _cpu_idle_timelines(mono)
    assert all(len(times) > 4 for times, _ in want.values())
    assert _cpu_idle_timelines(twin) == want
    assert twin.snapshot()["state_hash"] == doc["state_hash"]

    mono.run_hours(2.0)
    twin.run_hours(2.0)
    later = _cpu_idle_timelines(mono)
    assert all(len(later[h][0]) > len(want[h][0]) for h in want)
    assert _cpu_idle_timelines(twin) == later


# -- checkpoint files ----------------------------------------------------------


def _manager(tmp_path, **kw):
    harness = FidelityHarness(_site())
    defaults = dict(every_hours=1.0, extras=harness._extras())
    defaults.update(kw)
    return harness, CheckpointManager(harness.site, str(tmp_path),
                                      **defaults)


def test_epochs_a_second_apart_keep_two_files(tmp_path):
    """A checkpoint is named by its simulated second to the
    millisecond: two forced epochs one simulated second apart leave
    two files holding two different worlds."""
    harness, mgr = _manager(tmp_path)
    first = mgr.epoch(force=True)
    harness.site.run(1.0)
    second = mgr.epoch(force=True)
    assert mgr.written == 2
    assert mgr.checkpoints() == [first, second]
    assert (CheckpointManager.load(first)["state_hash"]
            != CheckpointManager.load(second)["state_hash"])


def test_epoch_honours_cadence_and_force(tmp_path):
    harness, mgr = _manager(tmp_path, every_hours=2.0)
    harness.run_hours(1.0)
    assert mgr.epoch() is None         # not due, no file
    path = mgr.epoch(force=True)
    assert path is not None and os.path.exists(path)
    harness.run_hours(2.0)
    assert mgr.epoch() is not None
    assert mgr.written == 2


def test_checkpoint_write_is_atomic_and_newline_terminated(tmp_path):
    harness, mgr = _manager(tmp_path)
    harness.run_hours(0.5)
    path = mgr.epoch(force=True)
    assert not os.path.exists(path + ".tmp")
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\n")
    snap = json.loads(raw)
    assert snap["state_hash"] == mgr.last_hash


def test_retention_keeps_newest_n(tmp_path):
    harness, mgr = _manager(tmp_path, retain=2)
    for _ in range(4):
        harness.run_hours(1.0)
        assert mgr.epoch(force=True) is not None
    kept = mgr.checkpoints()
    assert len(kept) == 2
    # the newest survives and names the latest sim hour
    assert kept[-1] == mgr.last_path


def test_constructor_validates_knobs(tmp_path):
    harness = FidelityHarness(_site())
    with pytest.raises(ValueError):
        CheckpointManager(harness.site, str(tmp_path), every_hours=0.0)
    with pytest.raises(ValueError):
        CheckpointManager(harness.site, str(tmp_path), retain=0)


def test_a_checkpoint_file_is_the_canonical_rendering_of_its_document(
        tmp_path):
    """Written from the sealed pieces, never re-encoded -- and still,
    byte for byte, what encoding the loaded document from scratch
    gives, for a site and for a federation; a federation's embedded
    site documents each verify on their own."""
    from repro.federation import build_federation, three_site_config
    harness, mgr = _manager(tmp_path)
    harness.run_hours(0.5)
    fed = build_federation(three_site_config(population=60_000))
    fed.run(600.0)
    fed_mgr = CheckpointManager(fed, str(tmp_path), label="fed")
    for manager in (mgr, fed_mgr):
        path = manager.epoch(force=True)
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = CheckpointManager.load(path)
        assert raw == (canonical_json(doc) + "\n").encode("ascii")
        assert doc["state_hash"] == manager.last_hash
    assert sorted(doc["sites"]) == sorted(fed.sites)
    for site_doc in doc["sites"].values():
        recorded = site_doc.pop("state_hash")
        assert state_hash(site_doc) == recorded


def test_a_deferred_epoch_is_on_the_books(tmp_path):
    """A snapshot that walked the world and was refused at the end is
    counted as deferred and writes nothing."""
    harness, mgr = _manager(tmp_path)
    harness.run_hours(0.5)
    harness.site.sim.schedule(60.0, lambda: None)     # nobody's event
    assert mgr.epoch(force=True) is None
    assert (mgr.written, mgr.deferred) == (0, 1)
    assert os.listdir(tmp_path) == []


def _fail_and_recover(directory, mgr, fresh_manager, fail, undo) -> None:
    """``fail`` makes the next epoch stop part-way through writing; the
    manager must be left as it was, and once ``undo`` mends the world
    its next epoch writes what a fresh manager's does."""
    fail()
    try:
        assert mgr.epoch(force=True) is None        # deferred
        assert mgr.deferred == 1
    except ValueError as exc:
        assert "Out of range float" in str(exc) and mgr.deferred == 0
    undo()
    assert os.listdir(directory) == []
    assert (mgr.written, mgr.last_path, mgr.last_hash) == (0, None, None)
    path = mgr.epoch(force=True)
    with open(path, "rb") as got, \
            open(fresh_manager().epoch(force=True), "rb") as want:
        assert got.read() == want.read()
    assert mgr.written == 1


@pytest.mark.parametrize("failure", ["deferred", "nan-before-hash",
                                     "nan-after-hash"])
def test_a_failed_site_epoch_leaves_nothing_behind(tmp_path, failure):
    """A refusal, or a non-finite float in a member that sorts before
    ``"state_hash"`` (written through as it is encoded) or after it
    (held until the hash is known), stops a streaming epoch: no file, no
    ``.tmp``, no ``last_hash``, no count."""
    harness, mgr = _manager(tmp_path / "ck")
    harness.run_hours(0.5)
    site = harness.site
    host = site.dc.hosts[max(site.dc.hosts)]
    agent = site.suites[max(site.suites)].agents[-1]
    held = {"host": host.io_demand, "agent": agent._busy_until}
    events = []
    fail = {
        "deferred": lambda: events.append(
            site.sim.schedule(60.0, lambda: None)),      # nobody's event
        "nan-before-hash": lambda: setattr(host, "io_demand", math.nan),
        "nan-after-hash": lambda: setattr(agent, "_busy_until", math.inf),
    }[failure]

    def undo():
        for ev in events:
            ev.cancel()
        host.io_demand, agent._busy_until = held["host"], held["agent"]
    _fail_and_recover(tmp_path / "ck", mgr, lambda: CheckpointManager(
        site, str(tmp_path / "fresh"), extras=harness._extras()), fail, undo)


def test_a_federation_epoch_refused_at_its_last_site_leaves_nothing_behind(
        tmp_path):
    """The first sites' documents are in the ``.tmp`` when the last one
    refuses."""
    from repro.federation import build_federation, three_site_config
    fed = build_federation(three_site_config(population=60_000))
    fed.run(600.0)
    last = fed.sites[max(fed.sites)].sim
    events = []
    _fail_and_recover(
        tmp_path / "ck", CheckpointManager(fed, str(tmp_path / "ck")),
        lambda: CheckpointManager(fed, str(tmp_path / "fresh")),
        lambda: events.append(last.schedule(60.0, lambda: None)),
        lambda: events[0].cancel())


@pytest.mark.parametrize("platform, maxrss", [("linux", 100 << 10),
                                              ("darwin", 100 << 20)])
def test_rss_mb_reads_the_platforms_unit(monkeypatch, platform, maxrss):
    """``ru_maxrss`` is KiB on Linux and bytes on macOS: 100 MiB each."""
    import resource
    import sys
    from types import SimpleNamespace
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=maxrss))
    assert rss_mb() == 100.0


def test_a_failed_write_leaves_no_tmp_and_prune_sweeps_stale_ones(
        tmp_path, monkeypatch):
    harness, mgr = _manager(tmp_path, retain=1)
    harness.run_hours(0.5)

    def disk_full(_fd):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space left"):
        mgr.epoch(force=True)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []
    assert mgr.written == 0 and mgr.last_path is None

    # what a killed writer of this label left, and one of another's
    stale = tmp_path / "ckpt-000000000900.000s.json.tmp"
    other = tmp_path / "other-000000000900.000s.json.tmp"
    stale.write_text("{")
    other.write_text("{")
    path = mgr.epoch(force=True)
    assert mgr.checkpoints() == [path]
    assert sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(path), other.name])
