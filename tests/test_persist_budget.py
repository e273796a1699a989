"""A work budget for the checkpoint cycle: counts, not clocks.

Two costs a checkpoint -> load -> resume cycle must not pay, pinned as
counts so they cannot creep back unnoticed (same spirit as
``test_clean_wake_budget.py``):

- **a second encoding.**  One ``epoch()`` may pass each byte of the
  file through ``json.dumps`` once: the document's hash, the
  federation's hash over its sites and the file itself all come from
  the same pieces (:func:`repro.persist.core.seal`).
- **a collection that cannot free anything.**  Parsing a checkpoint
  and building the world it describes only adds objects reachable from
  the result, so no garbage collection of any generation may start
  inside the resume path -- and the collector is handed back in the
  state the caller had it, raise or return.
"""

import gc
import json
import os

import pytest

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.federation import build_federation, three_site_config
from repro.persist import (CheckpointManager, fresh_site, restore_federation,
                           restore_site)


def _harness():
    harness = FidelityHarness(build_site(SiteConfig.test_scale(
        seed=0, with_workload=False, with_feeds=False)))
    harness.run_hours(0.25)
    return harness


def _federation():
    fed = build_federation(three_site_config(population=60_000))
    fed.run(600.0)
    return fed


# -- one encoding per epoch ---------------------------------------------------


def _encoded_per_written_byte(monkeypatch, mgr) -> float:
    """Characters that came out of ``json.dumps`` during one forced
    epoch, per byte of the file it wrote."""
    encoded = []
    original = json.dumps

    def dumps(*args, **kwargs):
        text = original(*args, **kwargs)
        encoded.append(len(text))
        return text
    monkeypatch.setattr(json, "dumps", dumps)
    path = mgr.epoch(force=True)
    monkeypatch.undo()
    assert path is not None
    return sum(encoded) / os.path.getsize(path)


def test_a_site_epoch_encodes_each_byte_once(tmp_path, monkeypatch):
    harness = _harness()
    mgr = CheckpointManager(harness.site, str(tmp_path),
                            extras=harness._extras())
    assert _encoded_per_written_byte(monkeypatch, mgr) <= 1.02


def test_a_federated_epoch_encodes_each_byte_once(tmp_path, monkeypatch):
    """Site hash, federation hash and file: one encoding, not three."""
    mgr = CheckpointManager(_federation(), str(tmp_path))
    assert _encoded_per_written_byte(monkeypatch, mgr) <= 1.02


# -- no collection on the resume path -----------------------------------------


@pytest.fixture
def collections():
    """Generations of the collections that started, in order."""
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])
    was_enabled = gc.isenabled()
    gc.callbacks.append(on_gc)
    yield started
    gc.callbacks.remove(on_gc)
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _quietly(collections, fn, *args, **kwargs):
    """``fn``'s result, having checked that no collection started
    inside it and the collector's switch is where the caller had it."""
    was_enabled = gc.isenabled()
    before = len(collections)
    try:
        return fn(*args, **kwargs)
    finally:
        inside = collections[before:]
        assert gc.isenabled() == was_enabled
        assert inside == [], f"{fn.__name__}: generations {inside}"


def _site_checkpoint(tmp_path):
    harness = _harness()
    mgr = CheckpointManager(harness.site, str(tmp_path),
                            extras=harness._extras())
    return mgr.epoch(force=True)


def _federation_checkpoint(tmp_path):
    return CheckpointManager(_federation(), str(tmp_path),
                             label="fed").epoch(force=True)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_site_resumes_without_a_collection(tmp_path, collections, enabled):
    path = _site_checkpoint(tmp_path)
    (gc.enable if enabled else gc.disable)()
    doc = _quietly(collections, CheckpointManager.load, path)
    site = _quietly(collections, fresh_site, doc)
    harness = FidelityHarness(site)
    _quietly(collections, restore_site, doc, site=site,
             extras=harness._extras())
    assert harness.snapshot()["state_hash"] == doc["state_hash"]
    assert gc.isenabled() == enabled
    if enabled:
        # the budget is not vacuous: the same work unpaused collects
        gc.collect()
        del collections[:]
        fresh_site.__wrapped__(doc)
        assert collections


@pytest.mark.parametrize("enabled", [True, False])
def test_a_federation_resumes_without_a_collection(tmp_path, collections,
                                                   enabled):
    path = _federation_checkpoint(tmp_path)
    (gc.enable if enabled else gc.disable)()
    doc = _quietly(collections, CheckpointManager.load, path)
    fresh = build_federation(three_site_config(population=60_000))
    fed = _quietly(collections, restore_federation, doc, fed=fresh)
    assert fed.now == doc["clock"]["now"]
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_refused_resume_hands_the_collector_back(tmp_path, collections,
                                                   enabled):
    site_doc = CheckpointManager.load(_site_checkpoint(tmp_path))
    fed_doc = CheckpointManager.load(_federation_checkpoint(tmp_path))
    hostile = tmp_path / "hostile.json"
    hostile.write_bytes(b'{"format":2,"kernel":\xff}')
    other = build_site(SiteConfig.test_scale(
        seed=1, with_workload=False, with_feeds=False))
    other_fed = build_federation(three_site_config(population=90_000))
    (gc.enable if enabled else gc.disable)()

    with pytest.raises(ValueError, match="hostile.json"):
        _quietly(collections, CheckpointManager.load, str(hostile))
    with pytest.raises(ValueError, match="wanted a site one"):
        _quietly(collections, restore_site, fed_doc)
    with pytest.raises(ValueError, match="wanted a site one"):
        _quietly(collections, fresh_site, fed_doc)
    with pytest.raises(ValueError, match="wanted a federation one"):
        _quietly(collections, restore_federation, site_doc, fed=other_fed)
    with pytest.raises(ValueError, match="different config"):
        _quietly(collections, restore_site, site_doc, site=other,
                 extras=site_doc["extras"])
    with pytest.raises(ValueError, match="different config"):
        _quietly(collections, restore_federation, fed_doc, fed=other_fed)
    assert gc.isenabled() == enabled
