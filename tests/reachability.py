"""Which functions under ``src/repro`` does no product run enter?

``python tests/reachability.py [--report FILE]`` runs every product
entry point in this one process under :class:`cProfile.Profile` -- the
interpreter's C-level profile hook, which sees every code object
entered, generators included -- and lists each function and method
under ``src/repro`` that none of them entered.  The entry points are
the product callers of ``tests/test_surface.py``:

- every :data:`repro.experiments.EXPERIMENTS` row at ``--seed 0``, then
  once more with every artifact option it takes, ``ablation-resubmission``
  at ``--seed 3`` (where a job exhausts its resubmissions), and the
  :data:`~repro.experiments.VARIANTS` (a checkpointed full-year run and
  its resume);
- ``repro-exp chaos``: a campaign, a planted-bug campaign and the
  shrink of its violation, the corpus builder, the corpus replay, and
  checkpointed replays with their time travel for a single-site and a
  federated scenario;
- every ``examples/*.py``;
- each ``benchmarks/e2e`` workload's child, timed and traced.

The hook is armed before the first ``import repro``, so a definition
that runs at import time -- a persist-vocabulary helper building a
class's declaration -- counts as entered.  Everything runs serially
(``repro.parallel.default_workers`` is still asked, but capped at 1;
``chaos run --processes 1``): serial and parallel replication are
byte-identical, so the serial path covers what a pool would run.

A function is keyed by ``(file, first line)``: the first line of its
code object, which for a decorated definition is its first
decorator's.  ``__repr__`` is not listed: the interpreter, tracebacks
and pytest call it.  A definition in an ``UNIMPORTED_OK`` module is
covered by its module.

The job fails -- exit 1, each reason on stderr -- when an entry point
raises or exits with a code other than its own, when an unentered
function is not on ``UNENTERED_OK`` in ``tests/test_surface.py``, when
a listed function is entered (or gone), and when a listed reason
carries no tag.  ``--report`` writes every function entered and every
one not as JSON.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import glob
import io
import json
import os
import runpy
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
E2E = os.path.join(ROOT, "benchmarks", "e2e")

#: defined everywhere and called by the interpreter, tracebacks and
#: pytest rather than by the program
SKIPPED = ("__repr__",)


def definitions(path: str, module: str) -> dict:
    """``{(path, first line): qualified name}`` for every function and
    method defined in ``path``, nested ones included: ``outer.inner``,
    ``Class.method``.  The first line is the first decorator's, as in
    the function's code object."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(path, first)] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def source_definitions(src: str = SRC) -> dict:
    """:func:`definitions` of every module under ``src``."""
    found = {}
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, src)[:-3].split(os.sep)
        module = ".".join(rel[:-1] if rel[-1] == "__init__" else rel)
        found.update(definitions(path, module))
    return found


def entered(profile: cProfile.Profile) -> set:
    """``(file, first line)`` of every code object ``profile`` saw
    entered."""
    return {(os.path.abspath(entry.code.co_filename),
             entry.code.co_firstlineno)
            for entry in profile.getstats()
            if not isinstance(entry.code, str)}


def verdict(defined: dict, seen: set, allowed: dict, unimported,
            reason) -> dict:
    """What the job reports: ``entered`` and ``unentered`` names, and
    its three failures -- ``unlisted`` (unentered, not allowed),
    ``stale`` (allowed, yet no definition of the name is unentered) and
    ``untagged`` (allowed without a reason tag)."""
    names = {}
    for key, name in defined.items():
        if name.rsplit(".", 1)[-1] in SKIPPED or any(
                name.startswith(module + ".") for module in unimported):
            continue
        names.setdefault(name, []).append(key in seen)
    unentered = sorted(n for n, hits in names.items() if not all(hits))
    return {
        "entered": sorted(n for n, hits in names.items() if any(hits)),
        "unentered": unentered,
        "unlisted": sorted(set(unentered) - set(allowed)),
        "stale": sorted(set(allowed) - set(unentered)),
        "untagged": sorted(n for n, why in allowed.items()
                           if not reason.match(why)),
    }


# -- the entry points ----------------------------------------------------------

def _cli_at(make_argv, label, code=0):
    """A ``repro-exp`` call whose arguments exist only once an earlier
    entry point has written them."""
    def run():
        from repro.cli import main
        return main(make_argv())
    return "repro-exp " + label, run, code


def _cli(*argv, code=0):
    return _cli_at(lambda: list(argv), " ".join(argv), code)


def _latest(pattern):
    return sorted(glob.glob(pattern))[-1]


def _example(path):
    def run():
        sys.argv = [path]
        runpy.run_path(path, run_name="__main__")
        return 0
    return f"python {os.path.relpath(path, ROOT)}", run, 0


def _e2e_child(workload, traced):
    argv = ["--child", workload, "--size", "quick"] + ["--traced"] * traced

    def run():
        import run as e2e_run           # entry_points put E2E on sys.path
        return e2e_run.main(argv)
    return "benchmarks/e2e/run.py " + " ".join(argv), run, 0


def _violation(campaign, out):
    """Write the first violating scenario of a campaign result."""
    def make():
        with open(campaign) as fh:
            scenario = json.load(fh)["violations"][0]["scenario_json"]
        with open(out, "w") as fh:
            fh.write(scenario)
        return ["chaos", "shrink", out, "--planted-bug",
                "--out", out + ".min"]
    return make


def entry_points(tmp: str) -> list:
    """``(label, run, expected exit code)`` of every product entry
    point, in the order they must run; ``tmp`` takes what they write."""
    from repro.cli import _PAIRS, _accepts
    from repro.experiments import EXPERIMENTS
    artifacts = {"trace": ("--trace", os.path.join(tmp, "trace.json")),
                 "timeline": ("--timeline",),
                 "json_out": ("--json", os.path.join(tmp, "reports.json")),
                 "markdown": ("--markdown", os.path.join(tmp, "reports.md"))}
    points = []
    for row in sorted(EXPERIMENTS):
        points.append(_cli(row, "--seed", "0"))
        options = set().union(*(_accepts(name, pair)
                                for name, pair in _PAIRS if name == row))
        extra = [arg for option, args in artifacts.items()
                 if option in options for arg in args]
        if extra:
            points.append(_cli(row, "--seed", "0", *extra))
    ck = os.path.join(tmp, "ck")
    points += [
        # A-resub at seed 3: a rescued job runs out of resubmissions and
        # the job manager gives up on it, which no seed-0 row reaches
        _cli("ablation-resubmission", "--seed", "3"),
        _cli("metrics", "--federation", "--seed", "0"),
        _cli("fig2", "--full-year", "--seed", "3", "--hosts", "12",
             "--hours", "2", "--segments", "2", "--checkpoint-dir", ck),
        _cli_at(lambda: ["fig2", "--resume", _latest(f"{ck}/ckpt-*.json"),
                         "--seed", "3", "--hours", "4", "--segments", "4",
                         "--checkpoint-dir", ck],
                "fig2 --resume CKPT --hours 4 --segments 4"),
    ]
    planted = os.path.join(tmp, "planted.json")
    points += [
        _cli("chaos", "run", "--processes", "1"),
        _cli("chaos", "run", "--planted-bug", "--max-violations", "1",
             "--processes", "1", "--out", planted, code=1),
        _cli_at(_violation(planted, os.path.join(tmp, "violating.json")),
                "chaos shrink VIOLATING --planted-bug --out FILE"),
        _cli("chaos", "corpus", "--dir", os.path.join(tmp, "corpus")),
        _cli("chaos", "replay", os.path.join(ROOT, "tests", "corpus")),
    ]
    for scenario in ("cascade.json", "site-loss.json"):
        path = os.path.join(ROOT, "tests", "corpus", scenario)
        epochs = os.path.join(tmp, scenario + ".epochs")
        points += [
            _cli("chaos", "replay", path, "--checkpoint-dir", epochs),
            _cli_at(lambda path=path, epochs=epochs: [
                "chaos", "replay", path, "--from-checkpoint",
                _latest(f"{epochs}/*.json")],
                f"chaos replay {scenario} --from-checkpoint CKPT"),
        ]
    points += [_example(path) for path in
               sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    sys.path.insert(0, E2E)
    from workloads import WORKLOADS
    points += [_e2e_child(name, traced) for name in WORKLOADS
               for traced in (False, True)]
    return points


def _run(label, run, code) -> str:
    """Run one entry point with its stdout discarded; an error message,
    or ''."""
    argv, cwd = sys.argv[:], os.getcwd()
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            got = run()
    except SystemExit as exc:
        got = exc.code
    except Exception:                       # noqa: BLE001 -- a finding
        got = "an exception:\n" + traceback.format_exc()
    finally:
        sys.argv = argv
        os.chdir(cwd)
    print(f"{time.perf_counter() - started:7.1f} s  {label}",
          file=sys.stderr)
    if (got or 0) != code:
        return (f"{label}: expected exit {code}, got {got}\n"
                + out.getvalue()[-2000:])
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--report", default="reachability.json",
                    help="where the JSON report goes (default "
                         "reachability.json)")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    profile = cProfile.Profile(builtins=False)
    profile.enable()                        # before the first import repro
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import repro.parallel
    pool_size = repro.parallel.default_workers
    repro.parallel.default_workers = lambda: min(pool_size(), 1)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, run, code in entry_points(tmp):
            failure = _run(label, run, code)
            if failure:
                failures.append(failure)
    profile.disable()

    sys.path.insert(0, HERE)
    from test_surface import REASON, UNENTERED_OK, UNIMPORTED_OK
    report = verdict(source_definitions(), entered(profile), UNENTERED_OK,
                     UNIMPORTED_OK, REASON)
    report["failed_entry_points"] = failures
    report["wall_s"] = round(time.perf_counter() - started, 1)
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for what, names in (
            ("entry point failed", failures),
            ("no product run enters this; delete it, or list it in "
             "UNENTERED_OK with a reason", report["unlisted"]),
            ("listed in UNENTERED_OK, yet entered (or gone)",
             report["stale"]),
            ("listed in UNENTERED_OK without a reason tag",
             report["untagged"])):
        for name in names:
            print(f"{what}: {name}", file=sys.stderr)
    print(f"{len(report['entered'])} entered, {len(report['unentered'])} "
          f"not, in {report['wall_s']} s; report in {args.report}",
          file=sys.stderr)
    return 1 if failures or report["unlisted"] or report["stale"] \
        or report["untagged"] else 0


if __name__ == "__main__":
    sys.exit(main())
