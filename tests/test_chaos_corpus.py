"""The committed corpus under ``tests/corpus/`` stays in sync with the
builders, replays green against every oracle, and -- the single-site
files -- replays to the committed golden byte for byte."""

import hashlib
import json
import os

import pytest

from repro.chaos.executor import run_episode
from repro.chaos.scenario import Scenario, build_corpus
from repro.core.admin import decision_line

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: what every single-site corpus file replayed to when the golden was
#: last regenerated (``python tests/test_chaos_corpus.py``).  It was
#: first written at PR 12's commit, before the two chaos executors were
#: merged, and is the byte-identity guardrail every later executor,
#: persist or control-plane change is made under: regenerate it only
#: for a change that is *meant* to alter a verdict, and say so.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "chaos_corpus.json")

#: shrunk fuzzer finds, committed beside the builder scenarios so the
#: corpus replay guards their fixes (no builder regenerates them)
REPRODUCERS = {"coordinator-blackout"}


def _corpus_files():
    return sorted(fn for fn in os.listdir(CORPUS_DIR)
                  if fn.endswith(".json"))


def _load(fn: str) -> Scenario:
    with open(os.path.join(CORPUS_DIR, fn)) as fh:
        return Scenario.from_json(fh.read())


def _fingerprint(ep) -> dict:
    return {
        "violated": ep.violated,
        "applied": list(ep.applied),
        "fizzled": list(ep.fizzled),
        "applied_kinds": sorted(ep.applied_kinds),
        "fizzled_kinds": sorted(ep.fizzled_kinds),
        "coverage": sorted(ep.coverage),
        "decisions_sha256": hashlib.sha256(
            "\n".join(map(decision_line, ep.site.admin.decisions)).encode()
        ).hexdigest(),
    }


def _single_site_fingerprints() -> dict:
    return {fn[:-len(".json")]: _fingerprint(run_episode(sc))
            for fn in _corpus_files()
            for sc in [_load(fn)] if sc.sites == 1}


def test_corpus_directory_is_populated():
    assert len(_corpus_files()) >= 10


def test_corpus_files_match_builders_byte_identically():
    """``repro-exp chaos corpus`` regenerates these files; a builder
    edit without a corpus refresh fails here."""
    built = build_corpus(0)
    on_disk = {fn[:-len(".json")] for fn in _corpus_files()}
    assert on_disk == set(built) | REPRODUCERS
    for name, sc in built.items():
        with open(os.path.join(CORPUS_DIR, f"{name}.json")) as fh:
            assert fh.read() == sc.to_json(), (
                f"tests/corpus/{name}.json is stale -- regenerate with "
                f"`repro-exp chaos corpus --dir tests/corpus`")


def test_corpus_files_parse_and_validate():
    for fn in _corpus_files():
        _load(fn).normalized().validate()


@pytest.mark.slow
def test_corpus_replays_green_against_every_oracle():
    for fn in _corpus_files():
        sc = _load(fn)
        ep = run_episode(sc)
        assert ep.ok, f"{sc.scenario_id}: {ep.violated}"
        assert ep.applied, f"{sc.scenario_id}: nothing applied"
        assert ep.coverage


@pytest.mark.slow
def test_single_site_corpus_replays_to_the_golden():
    """Verdicts, applied / fizzled events, coverage and the admin
    decision log of every single-site corpus file, pinned."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    replayed = _single_site_fingerprints()
    assert sorted(replayed) == sorted(golden)
    for name, fingerprint in replayed.items():
        assert fingerprint == golden[name], name


@pytest.mark.slow
def test_planted_bug_fires_only_on_adversarial_timing():
    corpus = build_corpus(0)
    bad = run_episode(corpus["wake-adversarial"], planted_bug=True)
    assert bad.violated == ["scan-ledger-parity"]
    good = run_episode(corpus["cascade"], planted_bug=True)
    assert good.ok


@pytest.mark.slow
def test_site_loss_reports_reconcile_on_every_site():
    """A federated episode carries what a single-site one does: incident
    reports per site whose downtime reconciles with that site's ledger
    (the crashes are not injector faults, so nyc's downtime lands in
    the unattributed report), and the markers those reports produce."""
    ep = run_episode(_load("site-loss.json"))
    assert ep.ok, ep.violated
    assert sorted(ep.books) == ["hkg", "lon", "nyc"]
    for name, book in ep.books.items():
        assert book.reconciliation["downtime_ok"], name
    nyc = ep.books["nyc"]
    assert nyc.reports
    assert nyc.reconciliation["downtime_reports_h"] > 0.0
    assert nyc.reconciliation["downtime_reports_h"] == pytest.approx(
        nyc.harness.ledger.total_hours(as_of=nyc.horizon))
    assert {"fed:site-loss", "fed:takeover:ok", "resolved:unresolved",
            "category:mixed"} <= ep.coverage


def test_planted_bug_is_planted_on_every_site_of_a_federation():
    ep = run_episode(_load("site-loss.json"), planted_bug=True)
    for book in ep.books.values():
        assert book.site.admin._wheel.set_deadline.__name__ == "mis_arm"


if __name__ == "__main__":      # regenerate the golden
    with open(GOLDEN, "w") as fh:
        json.dump(_single_site_fingerprints(), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
