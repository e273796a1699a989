"""Byte identity of the written document, layer by layer.

``tests/golden/persist_layers.json`` holds the ``state_hash`` of every
top-level layer of three real checkpoints -- a faulted, observed,
traced site; a 3-site federation after losing a site under traffic;
and the last epoch of a chaos episode (whose extras add the episode
book and the scan reference).  It was generated at PR 13's commit,
before the hand-written ``snapshot_state`` methods were replaced by
declared entries, so a later typo in one entry shows up as *that
layer's* hash instead of one opaque whole-world digest.

Format 5 regenerated it: each world's document equals the format-4
one once each heap token's priority, ``Periodic.cancelled`` and the
hosts' and applications' signal counters are dropped and each ``seq``
is replaced by its rank (an agent's cron job is registered once, so
the kernel's counter is lower by the number of agents).  The layers
holding a token (``kernel``, ``hosts``, ``apps``, ``lsf`` and, in the
site, ``suites``, ``telemetry`` and ``extras``) and those holding a
signal (``hosts``, ``apps``) moved; no other did.

Format 6 regenerated it: each world's document equals the format-5 one
once the members no product code reads are dropped (the components'
write-only counters, the admin pair's second decision log -- its
``decisions`` are now the typed rows ``decision_log`` held -- and the
``services`` and ``fed_nameservice`` layers, which held nothing else),
and ``format`` is set aside.  Only layers holding such a member moved;
``kernel``, ``rng``, ``tracer``, ``config`` and every other stayed.

Format 7 regenerated it: each world's document equals the format-6 one
once the five members the format-6 lint passed only by name are
dropped (``NameService.failures``, ``FrontDoor.shed_total``,
``WakePolicy.triggers``, ``GeoTrafficDriver.ticks``,
``TriggerBus.demand_wakes``) with the never-drawn ``site.build`` RNG
stream, and ``format`` is set aside.  Only ``nameservice``, ``rng``,
``suites`` and the federation's ``traffic`` moved.

Regenerate with ``PYTHONPATH=src python tests/test_persist_golden.py``
-- only for a change that is *meant* to alter the document, together
with a ``FORMAT_VERSION`` bump.
"""

import json
import os

import pytest

from repro.persist import CheckpointManager, state_hash

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "persist_layers.json")
HOUR = 3600.0


def faulted_site_snapshot() -> dict:
    """A test-scale site two hours into a 60-faults-a-day-per-category
    storm with the tracer and the observability tier on, one host
    crashed and caught mid-boot at the first quiescent barrier after
    that."""
    from repro.experiments.runner import FidelityHarness
    from repro.experiments.site import SiteConfig, build_site
    from repro.faults.models import Category
    from repro.persist import QuiescenceError
    from repro.trace import install_tracer
    site = build_site(SiteConfig.test_scale(
        seed=11, spare_servers=1, observe=True,
        with_workload=False))
    install_tracer(site.sim)
    harness = FidelityHarness(site)
    harness.injector.schedule_poisson({c: 60.0 for c in Category}, 4 * HOUR)
    harness.run_hours(2.0)
    for _try in range(60):
        try:
            harness.snapshot()
            break
        except QuiescenceError:
            site.sim.run(until=site.sim.now + 60.0)
    victim = site.dc.hosts[sorted(site.dc.hosts)[-1]]
    victim.crash()
    victim.boot()
    return harness.snapshot()


def federation_snapshot() -> dict:
    """Three sites, 60 000 users, New York lost an hour in."""
    from repro.federation import build_federation, three_site_config
    from repro.persist import sealed_federation
    from repro.persist.core import discard
    fed = build_federation(three_site_config(population=60_000))
    fed.start_traffic()
    fed.run(1 * HOUR - fed.now)
    for _name, host in sorted(fed.sites["nyc"].dc.hosts.items()):
        host.crash()
    fed.run(1 * HOUR)
    return sealed_federation(fed, write=discard)


def episode_snapshot(tmp: str) -> dict:
    """The last epoch checkpoint of the ``cascade`` corpus scenario."""
    from repro.chaos.executor import run_episode
    from repro.chaos.scenario import build_corpus
    run_episode(build_corpus(0)["cascade"], checkpoint_dir=tmp)
    return CheckpointManager.load(
        os.path.join(tmp, sorted(os.listdir(tmp))[-1]))


def layer_hashes(doc: dict, prefix: str = "") -> dict:
    """``layer path -> sha256`` for every top-level key of a site or
    federation document (a federation's sites are walked one deeper)."""
    out = {}
    for key, value in sorted(doc.items()):
        if key == "sites":
            for name, site_doc in sorted(value.items()):
                out.update(layer_hashes(site_doc, f"{prefix}sites/{name}/"))
        elif key == "state_hash":
            out[prefix + key] = value
        else:
            out[prefix + key] = state_hash({"": value})
    return out


def _worlds(tmp: str) -> dict:
    return {"site": layer_hashes(faulted_site_snapshot()),
            "federation": layer_hashes(federation_snapshot()),
            "episode": layer_hashes(episode_snapshot(tmp))}


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    return _worlds(str(tmp_path_factory.mktemp("epochs")))


@pytest.mark.parametrize("world", ["site", "federation", "episode"])
def test_every_layer_hashes_to_the_golden(worlds, world):
    with open(GOLDEN) as fh:
        want = json.load(fh)[world]
    got = worlds[world]
    assert sorted(got) == sorted(want)
    differing = sorted(k for k in want if got[k] != want[k]
                       and not k.endswith("state_hash"))
    assert not differing, f"{world}: layers differ from golden: {differing}"
    assert got == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        golden = _worlds(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: "
          + ", ".join(f"{w}={len(h)} layers" for w, h in golden.items()))
