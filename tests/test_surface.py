"""The public surface of :mod:`repro` against the code that uses it.

Three lints over the source of every ``.py`` file in the repository:

(a) *unpassed defaults* -- a defaulted parameter of a public function
    or method under ``src/repro`` that no call site anywhere passes, by
    keyword or by position, is a configuration nobody runs: make it the
    constant it always is;
(b) *unnamed definitions* -- a public function, class or method that
    no ``.py`` file names anywhere but at its own ``def`` is a path
    nobody takes: delete it;
(c) ``repro.observe`` imports nothing from ``repro.experiments``.

What (a) counts as a call site: ``f(...)`` or ``mod.f(...)`` resolved
through the caller's imports (and the packages' re-exports) for
module-level functions and classes, ``cls(...)`` inside the class
itself, and ``anything.m(...)`` for a method ``m``.  A call that
spreads ``*args`` or ``**kwargs`` passes everything, and so does a
function or method used as a value -- put in a table or handed over as
a callback -- since its callers cannot be seen.  A ``"module:function"``
string in a package (the lazy :data:`repro.experiments.EXPERIMENTS`
rows) names ``package.module.function`` as such a value.  ``__init__`` of a
subclassed class is skipped: ``super().__init__`` passes those.

An entry in ``UNPASSED_OK`` / ``UNNAMED_OK`` keeps a name on purpose
and says why; an entry the lint no longer needs fails too.
"""

import ast
import collections
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

UNPASSED_OK = {
    # scenario JSON reaches these through FaultInjector.inject(kind,
    # target, **params): outside input, not a call site
    "repro.faults.injector.FaultInjector.app_crash(category)":
        "scenario JSON passes it through FaultInjector.inject",
    "repro.faults.injector.FaultInjector.memory_leak(mb)":
        "scenario JSON passes it through FaultInjector.inject",
    "repro.faults.injector.FaultInjector.nic_failure(ifname)":
        "scenario JSON passes it through FaultInjector.inject",
    "repro.grid.GridResourceBroker.discover(max_load)":
        "the section 5 broker's query API for external schedulers",
    "repro.grid.GridResourceBroker.discover(min_ram_mb)":
        "the section 5 broker's query API for external schedulers",
    "repro.persist.core.member(attr)":
        "persist vocabulary: the attribute name when it differs",
    "repro.persist.core.signal(attr)":
        "persist vocabulary: the attribute name when it differs",
    "repro.sim.kernel.Simulator.__init__(start)": "kernel primitive",
    "repro.sim.kernel.Simulator.every(offset)": "kernel primitive",
    "repro.sim.kernel.Simulator.schedule_at(priority)": "kernel primitive",
    "repro.sim.calendar.grid_points(offset)": "kernel primitive",
    "repro.batch.jobs.BatchJob.__init__(submitted_at)":
        "record constructor: every field is settable",
    "repro.ontology.slkt.Slkt.__init__(apps)":
        "record constructor: every field is settable",
    "repro.ops.downtime.DowntimeLedger.record(note)":
        "record constructor: every field is settable",
    "repro.ops.downtime.DowntimeLedger.close_incident(escalated)":
        "record constructor: every field is settable",
    "repro.persist.federation_state.snapshot_federation(extras_by_site)":
        "mirrors restore_federation's, until the two entry pairs fold",
}

UNNAMED_OK = {
    "repro.core.parts.PartSwitches.activate":
        "the paper's part switches come as an on/off pair with deactivate",
    "repro.grid.GridResourceBroker.refresh_from_lines":
        "the broker's line-consuming entry",
    "repro.ontology.dgspl.FederatedDgspl.set_freshness":
        "it fills a persisted map",
}


def _python_files():
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs
                         if not d.startswith(".") and d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(top, name)


def _module_of(path):
    rel = os.path.relpath(path, SRC if path.startswith(SRC + os.sep)
                          else ROOT)[:-3].split(os.sep)
    return ".".join(rel[:-1] if rel[-1] == "__init__" else rel)


class _Source:
    """Every file parsed once, with its imports as qualified names."""

    def __init__(self):
        self.text, self.tree, self.names = {}, {}, {}
        reexport = {}
        for path in _python_files():
            with open(path) as fh:
                self.text[path] = fh.read()
            self.tree[path] = tree = ast.parse(self.text[path], path)
            module = _module_of(path)
            names = {n.name: f"{module}.{n.name}" for n in tree.body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        names[a.asname or a.name.split(".")[0]] = (
                            a.name if a.asname else a.name.split(".")[0])
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for a in node.names:
                        names[a.asname or a.name] = f"{node.module}.{a.name}"
                        if node in tree.body and path.startswith(SRC):
                            reexport[f"{module}.{a.asname or a.name}"] = \
                                f"{node.module}.{a.name}"
            self.names[path] = names
        self.reexport = reexport

    def qualify(self, path, expr):
        """``a.b.c`` with ``a`` resolved through the file's imports and
        the packages' re-exports, or None for anything else."""
        parts = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        parts.append(self.names[path].get(expr.id, expr.id))
        name = ".".join(reversed(parts))
        while name in self.reexport:
            name = self.reexport[name]
        return name


def _used_as_value(node, parents):
    """Whether ``node`` is handed on -- as an argument, a table entry,
    an assigned or returned value -- rather than called, typed against
    or looked into."""
    up, in_table = parents[node], False
    while isinstance(up, (ast.Tuple, ast.List, ast.Set, ast.Dict,
                          ast.keyword, ast.IfExp, ast.BoolOp)):
        in_table |= not isinstance(up, (ast.keyword, ast.IfExp, ast.BoolOp))
        node, up = up, parents[up]
    if isinstance(up, ast.Call):
        return node is not up.func and getattr(up.func, "id", "") not in (
            "isinstance", "issubclass")
    if isinstance(up, (ast.Subscript, ast.ExceptHandler)):
        return False
    return in_table or isinstance(up, (ast.Assign, ast.Return, ast.Lambda))


def _uses(source):
    """``(calls, escaped)``: every call's ``(positional count, keyword
    names, spreads)`` by qualified name and by attribute name, and the
    qualified and attribute names used as a value."""
    calls = collections.defaultdict(list)
    escaped = set()
    for path, tree in source.tree.items():
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sig = (len(node.args), {k.arg for k in node.keywords},
                       any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
                func = node.func
                if isinstance(func, ast.Attribute):
                    calls["." + func.attr].append(sig)
                if isinstance(func, ast.Name) and func.id == "cls":
                    up = node
                    while up in parents and not isinstance(up, ast.ClassDef):
                        up = parents[up]
                    if isinstance(up, ast.ClassDef):
                        calls[f"{_module_of(path)}.{up.name}"].append(sig)
                calls[source.qualify(path, func)].append(sig)
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)
                  and _used_as_value(node, parents)):
                if isinstance(node, ast.Attribute):
                    escaped.add("." + node.attr)
                escaped.add(source.qualify(path, node))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and re.fullmatch(r"\w+:\w+", node.value)):
                escaped.add(f"{_module_of(path)}."
                            + node.value.replace(":", "."))
    return calls, escaped


def _public_defs(source):
    """``(qualified name, call key, def node, leading args to skip)``
    for every public function, method and non-subclassed ``__init__``
    under ``src/repro``."""
    subclassed = {source.qualify(path, base)
                  for path, tree in source.tree.items()
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for base in node.bases}
    for path, tree in source.tree.items():
        if not path.startswith(SRC):
            continue
        module = _module_of(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    yield f"{module}.{node.name}", f"{module}.{node.name}", \
                        node, 0
            elif (isinstance(node, ast.ClassDef)
                  and not node.name.startswith("_")):
                cls = f"{module}.{node.name}"
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in fn.decorator_list)
                    if fn.name == "__init__" and cls not in subclassed:
                        yield f"{cls}.__init__", cls, fn, 1
                    elif not fn.name.startswith("_"):
                        yield f"{cls}.{fn.name}", "." + fn.name, fn, \
                            0 if static else 1


def _unpassed_defaults(source):
    calls, escaped = _uses(source)
    found = []
    for name, key, fn, skip in _public_defs(source):
        if key in escaped:
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        params = [(arg.arg, i - skip)
                  for i, arg in enumerate(positional) if i >= first]
        params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs,
                                                     a.kw_defaults)
                   if d is not None]
        for param, index in params:
            if not any(spread or param in keywords
                       or (index is not None and npos > index)
                       for npos, keywords, spread in calls[key]):
                found.append(f"{name}({param})")
    return found


def _unnamed_definitions(source):
    words = collections.Counter()
    for path, text in source.text.items():
        if path != os.path.abspath(__file__):
            words.update(re.findall(r"\w+", text))
    defined = collections.Counter(
        node.name for tree in source.tree.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    found = []
    for path, tree in source.tree.items():
        if not path.startswith(SRC):
            continue
        module = _module_of(path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = [(node.name, f"{module}.{node.name}")]
            if isinstance(node, ast.ClassDef):
                named += [(fn.name, f"{module}.{node.name}.{fn.name}")
                          for fn in node.body
                          if isinstance(fn, ast.FunctionDef)]
            found += [qualified for name, qualified in named
                      if not name.startswith("_")
                      and words[name] == defined[name]]
    return found


@pytest.fixture(scope="module")
def source():
    return _Source()


def test_every_defaulted_parameter_is_passed_somewhere(source):
    found = _unpassed_defaults(source)
    unexplained = sorted(set(found) - set(UNPASSED_OK))
    assert not unexplained, (
        "no call site passes these; make each the constant it always "
        "is, or allow-list it with a reason:\n  " + "\n  ".join(unexplained))
    assert not sorted(set(UNPASSED_OK) - set(found)), "stale allow-list"


def test_every_public_definition_is_named_somewhere(source):
    found = _unnamed_definitions(source)
    unexplained = sorted(set(found) - set(UNNAMED_OK))
    assert not unexplained, (
        "nothing names these but their own def; delete each, or "
        "allow-list it with a reason:\n  " + "\n  ".join(unexplained))
    assert not sorted(set(UNNAMED_OK) - set(found)), "stale allow-list"


def test_observe_imports_nothing_from_experiments(source):
    imported = {node.module if isinstance(node, ast.ImportFrom) else a.name
                for path, tree in source.tree.items()
                if _module_of(path).startswith("repro.observe")
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert "repro.faults.models" in imported
    assert not [m for m in imported if m.startswith("repro.experiments")]
