"""Every ``repro-exp`` row's stdout at ``--seed 0``, pinned by sha256,
and the paper's claims checked on that same run.

``tests/golden/cli_outputs.json`` maps each row -- the arguments after
``repro-exp``, without ``--seed 0`` -- to the sha256 of what the
command prints.

The rows below ``FAST`` run here, in process through :func:`main`,
which checks the row's :data:`~repro.experiments.CLAIMS` on the result
it prints; the CI ``cli-golden`` job runs the ``SLOW`` ones through the
installed entry point against the same file.

Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py``
(every row as a subprocess, ~40 s) -- only for a change that is
*meant* to alter what an experiment prints.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main
from repro.experiments import CLAIMS, EXPERIMENTS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "cli_outputs.json")

FAST = ("mttr", "fig3", "fig4", "ablation-centralised", "ablation-network",
        "ablation-frequency", "metrics", "metrics --federation",
        "incidents", "fig2 --replications 1", "userqos --replications 1",
        "relocation --replications 1")
SLOW = ("wakes", "ablation-resubmission", "ablation-checkpointing",
        "federation --population 100000", "federation", "fig2", "userqos",
        "relocation", "latency")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned(row: str) -> str:
    with open(GOLDEN) as fh:
        return json.load(fh)[row]


def _findings(row: str) -> list:
    """The findings on record for ``row``: each must still be reported
    at ``--seed 0``, or its mark comes off."""
    return [c.id for c in CLAIMS if c.row == row.split()[0] and c.finding]


@pytest.mark.parametrize("row", FAST)
def test_row_prints_what_it_printed_when_pinned(row, capsys):
    assert main(row.split() + ["--seed", "0"]) == 0
    out, err = capsys.readouterr()
    assert _sha256(out) == _pinned(row), out
    # every claim holds but the findings, which still stand
    assert [line.split()[1] for line in err.splitlines()] == _findings(row), err


def test_a_claim_that_does_not_hold_fails_the_row_and_moves_no_byte(
        monkeypatch, capsys):
    """A claim that does not hold names itself and its measured value on
    stderr and exits 1; one marked a finding is reported and exits 0."""
    claim = next(c for c in CLAIMS if c.row == "ablation-centralised")
    measured = []
    for finding, code in (("", 1), ("on record", 0)):
        broken = claim._replace(
            holds=lambda value: measured.append(value) or False,
            finding=finding)
        monkeypatch.setattr(cli, "CLAIMS", tuple(
            broken if c is claim else c for c in CLAIMS))
        assert main(["ablation-centralised", "--seed", "0"]) == code
        out, err = capsys.readouterr()
        assert _sha256(out) == _pinned("ablation-centralised")
        assert err.startswith(f"{'finding' if finding else 'claim'} "
                              f"{claim.id} ")
        assert f"measured {measured[-1]}" in err


def test_every_claim_reads_a_row_under_its_own_id():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    assert {claim.row for claim in CLAIMS} <= set(EXPERIMENTS)


def test_every_row_is_pinned():
    rows = {row.split()[0] for row in FAST + SLOW}
    assert rows == set(EXPERIMENTS)
    with open(GOLDEN) as fh:
        assert sorted(json.load(fh)) == sorted(FAST + SLOW)


if __name__ == "__main__":
    env = {**os.environ, "PYTHONPATH": os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")}
    golden = {}
    for row in FAST + SLOW:
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", *row.split(), "--seed", "0"],
            check=True, capture_output=True, env=env).stdout
        golden[row] = hashlib.sha256(out).hexdigest()
        print(f"{row}: {golden[row][:16]}")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(golden)} rows")
