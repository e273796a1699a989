"""What under ``src/repro`` does no product run execute?

``python tests/reachability.py [--report FILE]`` runs every product
entry point in this one process under one :func:`sys.settrace` hook
(:class:`Trace`) and writes three lists:

- ``unentered``: each function and method under ``src/repro`` that no
  run entered;
- ``unexecuted``: each statement of an entered function that never ran
  although its enclosing block did, classed ``error`` (a ``raise``, or
  inside an ``except`` body) or ``branch`` (everything else);
- ``constant``: each defaulted parameter that every product call bound
  to its default -- passed it by position, by keyword, through
  ``**kw``, or left it out.

The entry points are the product callers of ``tests/test_surface.py``:

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
covered by its module.  A parameter named after the destination of an
option of the command being run -- ``repro-exp`` or ``repro-exp
chaos`` -- is outside input, fed by that option, and is never
``constant``.

The job fails -- exit 1, each reason on stderr -- when an entry point
raises or exits with a code other than its own; when an unentered
function is not on ``UNENTERED_OK`` in ``tests/test_surface.py``, or a
constant parameter not on ``UNPASSED_OK``; when an entry of either
list is stale (entered, or neither constant nor flagged by lint (a));
and when an entry carries no reason tag.  ``unexecuted`` is reported,
not gated: its line numbers move with every edit.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import glob
import io
import json
import os
import runpy
import sys
import tempfile
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
E2E = os.path.join(ROOT, "benchmarks", "e2e")

#: defined everywhere and called by the interpreter, tracebacks and
#: pytest rather than by the program
SKIPPED = ("__repr__",)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: a bound value no default is
_UNBOUND = object()


def _same(value, default) -> bool:
    """Whether ``value`` is the parameter's default: the object itself,
    or an equal one of the same type."""
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:                       # noqa: BLE001 -- not comparable
        return False


def _defaults(fn) -> dict:
    """``{parameter: default}`` of a function object."""
    code = fn.__code__
    positional = code.co_varnames[:code.co_argcount]
    found = dict(zip(positional[len(positional) - len(fn.__defaults__ or ()):],
                     fn.__defaults__ or ()))
    found.update(fn.__kwdefaults__ or {})
    return found


def _module_functions(module) -> dict:
    """``{code: function}`` of every function and method a module
    defines at its top level or in its classes."""
    found, seen = {}, set()

    def visit(namespace):
        for value in list(namespace.values()):
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, property):
                for fn in (value.fget, value.fset, value.fdel):
                    if fn is not None:
                        visit({"": fn})
                continue
            value = getattr(value, "__wrapped__", value)
            if isinstance(value, types.FunctionType):
                found.setdefault(value.__code__, value)
            elif (isinstance(value, type) and id(value) not in seen
                  and value.__module__ == module.__name__):
                seen.add(id(value))
                visit(vars(value))

    visit(vars(module))
    return found


class Trace:
    """One :func:`sys.settrace` hook over the code objects under
    ``prefix``.

    The global tracer returns a local one only for those code objects,
    and only until each of its lines has run once.  On a fresh call it
    also compares every defaulted parameter's bound value with its
    default, until the parameter is seen bound to something else or
    called while named in ``fed``, the options of the command running.

    - ``lines``: ``{code: lines}`` of every code object entered;
      ``todo[code]`` is what of them has not run;
    - ``bound``: ``{code: {parameter: defaults}}`` of the parameters
      still bound only to their default; a nested function's code has
      one default per function object alive when it is first entered.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines, self.todo, self.bound = {}, {}, {}
        self.fed = frozenset()
        self._functions = {}

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def _first(self, frame):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            self.todo[code] = None
            return None
        lines = {line for _, _, line in code.co_lines()
                 if line is not None and line != code.co_firstlineno}
        self.lines[code], self.todo[code] = lines, set(lines)
        if code.co_argcount + code.co_kwonlyargcount:
            defaults = [_defaults(fn) for fn in self._of(frame)]
            self.bound[code] = {p: [d[p] for d in defaults if p in d]
                                for p in set().union(*defaults)}
        return self.todo[code]

    def _of(self, frame) -> list:
        """The function objects whose code ``frame`` runs."""
        name = frame.f_globals.get("__name__")
        if frame.f_code not in self._functions.get(name, ()) \
                and name in sys.modules:    # a module still importing grows
            self._functions[name] = _module_functions(sys.modules[name])
        fn = self._functions.get(name, {}).get(frame.f_code)
        if fn is not None:
            return [fn]
        return [ref for ref in gc.get_referrers(frame.f_code)
                if isinstance(ref, types.FunctionType)]

    def _call(self, frame, event, arg):
        code = frame.f_code
        todo = self.todo[code] if code in self.todo else self._first(frame)
        if todo is None:
            return None
        bound = self.bound.get(code)
        if bound and frame.f_lineno == code.co_firstlineno:
            # a fresh call, not a generator resuming
            values = frame.f_locals
            for param in [p for p, defaults in bound.items() if p in self.fed
                          or not any(_same(values.get(p, _UNBOUND), d)
                                     for d in defaults)]:
                del bound[param]
        return self._line if todo else None

    def _line(self, frame, event, arg):
        todo = self.todo[frame.f_code]
        if event == "line":
            todo.discard(frame.f_lineno)
        return self._line if todo else None

    def entered(self) -> set:
        """``(file, first line)`` of every code object entered."""
        return {(os.path.abspath(code.co_filename), code.co_firstlineno)
                for code in self.lines}

    def ran(self) -> dict:
        """``{file: lines}`` that ran."""
        found = {}
        for code, lines in self.lines.items():
            found.setdefault(os.path.abspath(code.co_filename), set()).update(
                lines - self.todo[code])
        return found

    def constant(self) -> dict:
        """``{(file, first line): parameters}`` bound only to their
        default."""
        found = {}
        for code, bound in self.bound.items():
            if bound:
                found.setdefault((os.path.abspath(code.co_filename),
                                  code.co_firstlineno), set()).update(bound)
        return found


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def definitions(path: str, module: str) -> dict:
    """``{(path, first line): (qualified name, def node)}`` for every
    function and method defined in ``path``, nested ones included:
    ``outer.inner``, ``Class.method``.  The first line is the first
    decorator's, as in the function's code object."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS + (ast.ClassDef,)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found[(path, _first_line(child))] = (name, child)
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


def _blocks(stmt) -> list:
    """``(statements, in an except body)`` of each block ``stmt``
    holds, nested definitions aside: they run as code of their own."""
    if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
        return []
    blocks = [(getattr(stmt, field), False)
              for field in ("body", "orelse", "finalbody")
              if getattr(stmt, field, None)]
    blocks += [(handler.body, True) for handler in getattr(stmt, "handlers",
                                                           ())]
    return blocks + [(case.body, False) for case in getattr(stmt, "cases", ())]


def _compiles(stmt) -> bool:
    """Whether ``stmt`` leaves bytecode with a line: not a docstring or
    other bare constant, not ``global`` / ``nonlocal``."""
    return not (isinstance(stmt, (ast.Global, ast.Nonlocal))
                or isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))


def unexecuted(fn, ran: set) -> list:
    """``(statement, kind)`` of each statement of the body of ``fn``
    that never ran although its enclosing block did; ``kind`` is
    ``error`` for a ``raise`` or a statement in an ``except`` body and
    ``branch`` otherwise.  A statement ran when a line of its own --
    for a compound one, those before its first block -- is in ``ran``,
    or when a statement in one of its blocks ran."""
    executed = {}

    def runs(stmt) -> bool:
        if stmt not in executed:
            blocks = _blocks(stmt)
            last = (min(block[0].lineno for block, _ in blocks) - 1
                    if blocks else stmt.end_lineno)
            own = range(_first_line(stmt) if isinstance(
                stmt, _FUNCTIONS + (ast.ClassDef,)) else stmt.lineno,
                max(last, stmt.lineno) + 1)
            executed[stmt] = not ran.isdisjoint(own) or any(
                runs(s) for block, _ in blocks for s in block if _compiles(s))
        return executed[stmt]

    found = []

    def visit(block, in_handler):
        for stmt in block:
            if not _compiles(stmt):
                continue
            if not runs(stmt):
                found.append((stmt, "error" if in_handler or isinstance(
                    stmt, ast.Raise) else "branch"))
                continue
            for inner, handler in _blocks(stmt):
                visit(inner, in_handler or handler)

    visit(fn.body, False)
    return found


def verdict(defined: dict, seen: set, allowed: dict, unimported,
            reason) -> dict:
    """What the job reports of functions: ``entered`` and ``unentered``
    names, and its three failures -- ``unlisted`` (unentered, not
    allowed), ``stale`` (allowed, yet no definition of the name is
    unentered) and ``untagged`` (allowed without a reason tag)."""
    names = {}
    for key, (name, _) in defined.items():
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


def constants(defined: dict, constant: dict, allowed: dict, unpassed,
              reason) -> dict:
    """What the job reports of parameters: ``constant`` --
    ``function(parameter)`` bound only to its default -- and its three
    failures -- ``unlisted`` (constant, not allowed), ``stale``
    (allowed, yet neither constant nor in lint (a)'s ``unpassed``) and
    ``untagged``."""
    found = sorted(f"{defined[key][0]}({param})"
                   for key, params in constant.items() if key in defined
                   for param in params)
    return {
        "constant": found,
        "unlisted": sorted(set(found) - set(allowed)),
        "stale": sorted(set(allowed) - set(found) - set(unpassed)),
        "untagged": sorted(n for n, why in allowed.items()
                           if not reason.match(why)),
    }


def statements(defined: dict, seen: set, ran: dict) -> list:
    """:func:`unexecuted` of every entered function, as report rows."""
    rows = []
    for key, (name, fn) in sorted(defined.items()):
        if key not in seen:
            continue
        with open(key[0]) as fh:
            text = fh.read().splitlines()
        for stmt, kind in unexecuted(fn, ran.get(key[0], set())):
            rows.append({"function": name, "kind": kind,
                         "line": stmt.lineno,
                         "lines": stmt.end_lineno - stmt.lineno + 1,
                         "statement": text[stmt.lineno - 1].strip()})
    return rows


def destinations(parser) -> frozenset:
    """The destination of every option of ``parser`` and its
    subcommands: the parameter names those options feed."""
    parsers, found = [parser], set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.option_strings and action.dest != "help":
                found.add(action.dest)
    return frozenset(found)


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
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    failures = []
    with Trace(os.path.join(SRC, "repro") + os.sep) as trace:
        import repro.parallel               # armed before the first import
        from repro.chaos.cli import _parser as chaos_parser
        from repro.cli import _parser
        pool_size = repro.parallel.default_workers
        repro.parallel.default_workers = lambda: min(pool_size(), 1)
        commands = {"repro-exp chaos ": destinations(chaos_parser()),
                    "repro-exp ": destinations(_parser()[0])}
        with tempfile.TemporaryDirectory() as tmp:
            for label, run, code in entry_points(tmp):
                trace.fed = next((fed for command, fed in commands.items()
                                  if label.startswith(command)), frozenset())
                failure = _run(label, run, code)
                if failure:
                    failures.append(failure)

    sys.path.insert(0, HERE)
    from test_surface import (REASON, UNENTERED_OK, UNIMPORTED_OK,
                              UNPASSED_OK, _Source, _unpassed_defaults)
    defined, seen = source_definitions(), trace.entered()
    report = verdict(defined, seen, UNENTERED_OK, UNIMPORTED_OK, REASON)
    params = constants(defined, trace.constant(), UNPASSED_OK,
                       _unpassed_defaults(_Source()), REASON)
    report["constant"] = params["constant"]
    report["unexecuted"] = statements(defined, seen, trace.ran())
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
             report["untagged"]),
            ("every product call binds this to its default; make it the "
             "constant it is, or list it in UNPASSED_OK with a reason",
             params["unlisted"]),
            ("listed in UNPASSED_OK, yet passed (or gone)", params["stale"]),
            ("listed in UNPASSED_OK without a reason tag",
             params["untagged"])):
        for name in names:
            print(f"{what}: {name}", file=sys.stderr)
    kinds = [row["kind"] for row in report["unexecuted"]]
    print(f"{len(report['entered'])} entered, {len(report['unentered'])} "
          f"not; {kinds.count('branch')} branch and {kinds.count('error')} "
          f"error statements unexecuted; {len(report['constant'])} "
          f"constant parameters; in {report['wall_s']} s; report in "
          f"{args.report}", file=sys.stderr)
    return 1 if failures or report["unlisted"] or report["stale"] \
        or report["untagged"] or params["unlisted"] or params["stale"] \
        or params["untagged"] else 0


if __name__ == "__main__":
    sys.exit(main())
