"""Self-checks of the end-to-end harness.

Run explicitly (not part of the tier-1 ``testpaths``; ~25 s):

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_is_duration_minus_wrapped_children(monkeypatch):
    clock = iter([0, 10, 40, 50, 70, 100])   # outer in, a in/out, b in/out, outer out
    monkeypatch.setattr(layers, "perf_counter_ns", lambda: next(clock))
    rec = layers.Recorder()
    rec.begin_phase("run")
    inner = rec.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
        return "done"

    assert rec.wrap("outer", body)() == "done"
    rows = rec.phases["run"]
    assert rows[("inner", "outer")] == [2, 50, 50]
    assert rows[("outer", "<root>")] == [1, 100, 50]
    assert rec.totals() == {"inner": (2, 50e-9), "outer": (1, 50e-9)}
    assert rec.stack == [["<root>", 100]]
    assert rec.durations_ms("inner") == [30e-6, 20e-6]


def test_a_raising_call_is_still_accounted(monkeypatch):
    clock = iter([0, 7])
    monkeypatch.setattr(layers, "perf_counter_ns", lambda: next(clock))
    rec = layers.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.phases["setup"][("boom", "<root>")] == [1, 7, 7]
    assert len(rec.stack) == 1


def _table_slots():
    """(owner, attribute) for every class slot and defining-module
    function the table names, plus ``Crond.register``."""
    for targets in layers.LAYERS.values():
        for mod_name, cls_name, attr in targets:
            module = importlib.import_module(mod_name)
            yield (module if cls_name is None
                   else getattr(module, cls_name)), attr
    from repro.cluster.cron import Crond
    yield Crond, "register"


def test_traced_patches_then_restores_by_identity():
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr in _table_slots()]
    import repro.persist
    import repro.persist.site_state
    alias = repro.persist.snapshot_site
    with layers.traced():
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, (owner, attr)
        # a by-name import of a table function is rebound to the same shim
        assert repro.persist.snapshot_site is not alias
        assert repro.persist.snapshot_site \
            is repro.persist.site_state.snapshot_site
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
    assert repro.persist.snapshot_site is alias


def test_traced_restores_after_an_exception():
    from repro.core.agent import Intelliagent
    original = vars(Intelliagent)["run"]
    with pytest.raises(RuntimeError):
        with layers.traced():
            raise RuntimeError("world build failed")
    assert vars(Intelliagent)["run"] is original


def test_spec_names_are_well_formed_and_cover_the_table():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for prefix in list(layers.LAYERS) + list(layers.CRON_JOBS.values()):
        assert {f"{prefix}.calls", f"{prefix}.self_s"} & per_layer, prefix
    for counter, _fn in layers.TALLIES.values():
        assert counter in per_layer
    from workloads import WORKLOADS
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=300)
    return proc, json.loads(out.read_text())


def test_quick_run_passes_every_check(quick_run):
    proc, doc = quick_run
    assert proc.returncode == 0, proc.stdout
    for name, got in doc["workloads"].items():
        # includes: traced digest (shims on, PYTHONHASHSEED=1) == timed digest
        assert got["ops_failed"] == 0, (name, got["failures"])
        assert got["ops_attempted"] == 6
        assert got["digest"] == doc["manifest"]["digests"][name]
    for key in ("commit", "seed", "argv", "python", "nproc", "loadavg_1m",
                "src_loc", "digests"):
        assert key in doc["manifest"]


def test_names_printed_and_recorded_are_the_spec_names(quick_run):
    proc, doc = quick_run
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for got in doc["workloads"].values():
        assert sorted(got["e2e"]) == sorted(e2e)
        assert sorted(got["layers"]) == sorted(per_layer)
    known = set(e2e) | set(per_layer)
    printed = [line.split()[0] for line in proc.stdout.splitlines()
               if line.startswith("  ") and not line.startswith("  FAILED")]
    assert printed and all(NAME.fullmatch(n) for n in printed)
    assert set(printed) <= known, sorted(set(printed) - known)
    assert set(e2e) <= set(printed)


def test_clean_fleet_never_enters_the_fault_layers(quick_run):
    _proc, doc = quick_run
    got = doc["workloads"]["fleet-clean-1k"]["layers"]
    for name, value in got.items():
        if name.startswith(("persist.", "relocate.", "traffic.",
                            "core.healing.")):
            assert value == 0, name
