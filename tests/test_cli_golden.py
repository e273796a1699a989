"""Every ``repro-exp`` row's stdout at ``--seed 0``, pinned by sha256.

``tests/golden/cli_outputs.json`` maps each row -- the arguments after
``repro-exp``, without ``--seed 0`` -- to the sha256 of what the
command prints.

The rows below ``FAST`` run here, in process through :func:`main`;
the CI ``cli-golden`` job runs the ``SLOW`` ones through the installed
entry point against the same file.

Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py``
(every row as a subprocess, ~40 s) -- only for a change that is
*meant* to alter what an experiment prints.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

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


@pytest.mark.parametrize("row", FAST)
def test_row_prints_what_it_printed_when_pinned(row):
    with open(GOLDEN) as fh:
        want = json.load(fh)[row]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(row.split() + ["--seed", "0"]) == 0
    assert _sha256(out.getvalue()) == want, out.getvalue()


def test_every_row_is_pinned():
    from repro.experiments import EXPERIMENTS
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
