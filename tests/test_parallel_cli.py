"""Unit tests for the parallel helpers and the CLI."""

import pytest

from repro.experiments import EXPERIMENTS, resolve
from repro.parallel import ReplicationError, default_workers, replicate


def _square(seed: int) -> int:
    return seed * seed


def _boom(seed: int) -> int:
    if seed == 3:
        raise ValueError(f"bad draw at {seed}")
    return seed


def test_replicate_serial_small_batch():
    assert replicate(_square, [1, 2, 3], min_parallel=10) == [1, 4, 9]


def test_replicate_parallel_preserves_order():
    seeds = list(range(12))
    out = replicate(_square, seeds, min_parallel=2)
    assert out == [s * s for s in seeds]


def test_replicate_single_worker_is_serial():
    assert replicate(_square, list(range(6)), processes=1) == [
        s * s for s in range(6)]


def test_serial_failure_reports_offending_seed():
    with pytest.raises(ReplicationError) as err:
        replicate(_boom, [1, 2, 3, 4], processes=1)
    assert err.value.seed == 3
    assert isinstance(err.value.cause, ValueError)


def test_pool_failure_reports_same_seed_as_serial():
    """The two execution paths must blame the identical seed."""
    with pytest.raises(ReplicationError) as pool_err:
        replicate(_boom, list(range(8)), min_parallel=2)
    with pytest.raises(ReplicationError) as serial_err:
        replicate(_boom, list(range(8)), processes=1)
    assert pool_err.value.seed == serial_err.value.seed == 3
    assert "seed 3" in str(pool_err.value)


def test_default_workers_positive():
    assert default_workers() >= 1


def test_cli_mttr_prints_table(capsys):
    from repro.cli import main
    assert main(["mttr", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "MTTR reproduction" in out
    assert "mid-crash" in out


def test_cli_ablation_centralised(capsys):
    from repro.cli import main
    assert main(["ablation-centralised"]) == 0
    out = capsys.readouterr().out
    assert "A-local" in out


# -- the experiment table ------------------------------------------------------

@pytest.mark.parametrize("row", sorted(EXPERIMENTS))
def test_every_row_is_wired(row):
    """Each row -- in each variant -- runs from a seed, is a parser
    choice and is pinned in the CLI golden file."""
    import inspect
    import json
    import os
    from repro import cli
    for name, (run, fmt) in cli._PAIRS:
        if name == row:
            assert "seed" in inspect.signature(resolve(run)).parameters
            assert callable(resolve(fmt))
    assert cli._parser()[0].parse_args([row]).experiment == row
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "cli_outputs.json")) as fh:
        assert row in json.load(fh)


def test_every_option_is_taken_by_a_row():
    from repro import cli
    _, flags = cli._parser()
    for dest, flag in flags.items():
        assert any(dest in cli._accepts(row, pair)
                   for row, pair in cli._PAIRS), f"{flag} is a dead flag"


@pytest.mark.parametrize("argv, needle", [
    ("fig2 --replications 0", "--replications"),
    ("userqos --population 0 --replications 1", "--population"),
    ("fig2 --population 5 --hosts 3", "fig2 takes no --population"),
    ("mttr --timeline", "mttr takes no --timeline"),
    ("fig2 --full-year --hosts 12 --hours 0", "--hours"),
    ("fig2 --full-year --hosts 12 --hours 1 --segments 0", "--segments"),
    ("fig2 --full-year --hosts 0 --hours 0.5", "--hosts"),
    ("all --trace out.json", "all takes no --trace"),
])
def test_bad_input_is_a_usage_error(argv, needle, capsys, tmp_path,
                                    monkeypatch):
    """Out-of-range values and options the row's run does not take
    exit 2 before anything runs, naming what is wrong."""
    from repro.cli import main
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert needle in capsys.readouterr().err


def test_cli_fig3_and_fig4(capsys):
    from repro.cli import main
    assert main(["fig3"]) == 0
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "Figure 4" in out
    assert "BMC" in out


def test_cli_fig2_single_replication(capsys):
    from repro.cli import main
    assert main(["fig2", "--replications", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "TOTAL" in out


def test_cli_rejects_unknown_experiment():
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- structured per-seed outcomes (chaos batch contract) ------------------------

from repro.parallel import SeedOutcome, replicate_outcomes


def test_outcomes_never_raise_and_preserve_order():
    out = replicate_outcomes(_boom, [1, 2, 3, 4], min_parallel=10)
    assert [o.seed for o in out] == [1, 2, 3, 4]
    assert [o.ok for o in out] == [True, True, False, True]
    assert out[0].value == 1
    assert "bad draw at 3" in out[2].error


def test_outcomes_parallel_matches_serial():
    serial = replicate_outcomes(_boom, list(range(8)), min_parallel=100)
    pooled = replicate_outcomes(_boom, list(range(8)), min_parallel=2)
    assert [(o.seed, o.ok, o.value) for o in serial] == \
           [(o.seed, o.ok, o.value) for o in pooled]


def test_outcome_unwrap():
    ok, bad = replicate_outcomes(_boom, [1, 3], min_parallel=10)
    assert ok.unwrap() == 1
    with pytest.raises(ReplicationError, match="seed 3"):
        bad.unwrap()
    assert isinstance(ok, SeedOutcome)


def test_cli_chaos_corpus_round_trips(tmp_path, capsys):
    from repro.chaos.scenario import Scenario, build_corpus
    from repro.cli import main
    assert main(["chaos", "corpus", "--dir", str(tmp_path)]) == 0
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(files) >= 10
    built = build_corpus(0)
    sc = Scenario.from_json((tmp_path / files[0]).read_text())
    assert sc.to_dict() == built[sc.name].to_dict()


def test_cli_chaos_requires_subcommand():
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["chaos"])
