"""The committed corpus under ``tests/corpus/`` stays in sync with the
builders and replays green against every oracle."""

import os

import pytest

from repro.chaos.executor import run_episode
from repro.chaos.scenario import Scenario, build_corpus

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: shrunk fuzzer finds, committed beside the builder scenarios so the
#: corpus replay guards their fixes (no builder regenerates them)
REPRODUCERS = {"coordinator-blackout"}


def _corpus_files():
    return sorted(fn for fn in os.listdir(CORPUS_DIR)
                  if fn.endswith(".json"))


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
        with open(os.path.join(CORPUS_DIR, fn)) as fh:
            sc = Scenario.from_json(fh.read())
        sc.normalized().validate()


@pytest.mark.slow
def test_corpus_replays_green_against_every_oracle():
    for fn in _corpus_files():
        with open(os.path.join(CORPUS_DIR, fn)) as fh:
            sc = Scenario.from_json(fh.read())
        ep = run_episode(sc)
        assert ep.ok, f"{sc.scenario_id}: {ep.violations}"
        assert ep.applied, f"{sc.scenario_id}: nothing applied"
        assert ep.coverage


@pytest.mark.slow
def test_planted_bug_fires_only_on_adversarial_timing():
    corpus = build_corpus(0)
    bad = run_episode(corpus["wake-adversarial"], planted_bug=True)
    assert bad.violated == ["scan-ledger-parity"]
    good = run_episode(corpus["cascade"], planted_bug=True)
    assert good.ok
