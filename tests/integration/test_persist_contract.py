"""The persistence determinism contract: segmentation is free.

The whole point of :mod:`repro.persist` is that an epoch boundary is
invisible -- a run that snapshots, dies, and resumes from JSON on disk
must be *byte-identical* to the run that never stopped: same downtime
books, same admin decision log, same event count, same full-world
state hash.  These tests are the permanent guardrail for that claim;
they run a live fault campaign both ways and diff the bytes.

The chaos time-travel test closes the loop on the debugging story: a
violation found at the end of a scenario reproduces identically when
the episode is restored at a pre-incident epoch and only the remainder
is replayed.
"""

import json
import os

import pytest

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import Category
from repro.persist import CheckpointManager, canonical_json, state_hash

#: a brisk mixed campaign: host crashes, frontend trouble, a network cut
RATES = {Category.MID_CRASH: 4.0, Category.FRONT_END: 3.0,
         Category.FIREWALL_NETWORK: 1.0}


def _fresh(seed: int, horizon_h: float, **kw) -> FidelityHarness:
    defaults = dict(seed=seed, spare_servers=1,
                    with_workload=False)
    defaults.update(kw)
    harness = FidelityHarness(build_site(SiteConfig.test_scale(**defaults)))
    harness.injector.schedule_poisson(RATES, horizon_h * 3600.0)
    return harness


def _digest(harness: FidelityHarness) -> str:
    return canonical_json(harness.summary())


def test_monolithic_equals_resumed_split():
    """One 4 h run == 2 h + whole-world JSON round trip + 2 h."""
    mono = _fresh(3, 4.0)
    mono.run_hours(4.0)

    first = _fresh(3, 4.0)
    first.run_hours(2.0)
    blob = json.dumps(first.snapshot())        # through actual JSON
    second = FidelityHarness.resume(json.loads(blob))
    second.run_hours(2.0)

    assert _digest(second) == _digest(mono)
    # the admin decision log is part of the digest, but make the
    # strongest claim explicit: every decision line, in order
    assert second.site.admin.decisions == mono.site.admin.decisions


def test_kill_resume_chain_preserves_full_world_hash(tmp_path):
    """4 segments with a full kill (only JSON on disk survives) per
    epoch produce the same *complete world state* as the straight run,
    with the observability tier on."""
    horizon = 4.0
    mono = _fresh(11, horizon, observe=True)
    mono.run_hours(horizon)
    want = _digest(mono)
    want_hash = mono.snapshot()["state_hash"]

    path = None
    harness = _fresh(11, horizon, observe=True)
    for _segment in range(4):
        if path is not None:
            with open(path) as fh:            # the "new process"
                harness = FidelityHarness.resume(json.load(fh))
        harness.run_hours(horizon / 4)
        mgr = CheckpointManager(harness.site, str(tmp_path),
                                extras=harness._extras(), label="seg")
        path = mgr.epoch(force=True)
        assert path is not None, "epoch boundary was not quiescent"
        harness = None                        # nothing survives but disk

    with open(path) as fh:
        final = FidelityHarness.resume(json.load(fh))
    assert _digest(final) == want
    assert final.snapshot()["state_hash"] == want_hash


def test_checkpoint_hash_matches_recorded_hash(tmp_path):
    harness = _fresh(5, 1.0)
    harness.run_hours(1.0)
    mgr = CheckpointManager(harness.site, str(tmp_path),
                            extras=harness._extras())
    path = mgr.epoch(force=True)
    snap = CheckpointManager.load(path)
    recorded = snap.pop("state_hash")
    assert state_hash(snap) == recorded


def _time_travel(corpus_file: str, tmp_path, **kw):
    """Run a corpus scenario with checkpoints, then again from its
    first and its last epoch: every replay must reproduce the
    uninterrupted run's outcome.  Returns that run."""
    from repro.chaos.executor import run_episode
    from repro.chaos.scenario import Scenario

    with open(os.path.join("tests", "corpus", corpus_file)) as fh:
        sc = Scenario.from_json(fh.read())

    ckdir = str(tmp_path / "epochs")
    full = run_episode(sc, checkpoint_dir=ckdir, **kw)

    epochs = sorted(os.listdir(ckdir))
    assert len(epochs) >= 2, "scenario long enough for multiple epochs"

    for epoch in (epochs[0], epochs[-1]):     # earliest and last
        replay = run_episode(
            sc, from_checkpoint=os.path.join(ckdir, epoch), **kw)
        assert replay.violated == full.violated
        assert replay.applied == full.applied
        assert replay.fizzled == full.fizzled
        assert replay.coverage == full.coverage
        assert canonical_json([v.to_dict() for v in replay.verdicts]) \
            == canonical_json([v.to_dict() for v in full.verdicts])
    return full


@pytest.mark.slow
def test_chaos_time_travel_reproduces_violation(tmp_path):
    """A planted-bug violation found at the end of the adversarial
    wake scenario reproduces identically from a mid-episode epoch."""
    full = _time_travel("wake-adversarial.json", tmp_path,
                        planted_bug=True)
    assert not full.ok, "planted bug must trip an oracle"


@pytest.mark.slow
def test_federated_chaos_time_travel_reproduces_the_run(tmp_path):
    """The three-site episode checkpoints and time-travels like the
    single-site one: every site, the WAN, the geo tier and the pending
    scenario events all ride one federation document."""
    full = _time_travel("site-loss.json", tmp_path)
    assert full.ok, full.violations
    assert "fed:site-loss" in full.coverage
