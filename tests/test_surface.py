"""The public surface of :mod:`repro` against the product code that uses it.

*Product code* is every ``.py`` file outside ``tests/`` -- ``src``,
``benchmarks``, ``examples`` -- except ``test_*.py`` files.  A test is
not a caller: what only tests reach is not behaviour the program has.
Five lints:

(a) *unpassed defaults* -- a defaulted parameter of a public function
    or method under ``src/repro`` that no product call site passes, by
    keyword or by position, is a configuration nobody runs: make it the
    constant it always is.  A parameter never passed is bound only to
    its default, so ``UNPASSED_OK`` -- the list ``tests/reachability.py``
    checks by running every product entry point -- is (a)'s allow-list
    too, and that job, not (a), fails on an entry that has gone stale;
(b) *unnamed definitions* -- a public function, class or method that
    no product file names anywhere but at its own ``def`` is a path
    nobody takes: delete it.  An ``__all__`` list or a package
    ``__init__``'s import (a re-export) does not count as naming it.
    A name nothing names is a function no product run enters, so
    ``UNENTERED_OK`` -- the list ``tests/reachability.py`` checks by
    running every product entry point -- is (b)'s allow-list too, and
    that job, not (b), fails on an entry that has gone stale;
(c) *unimported modules* -- a module under ``src/repro`` that no
    product file imports is code nothing runs: delete it.  A package
    ``__init__``'s own imports are re-exports and do not count; package
    ``__init__``s and the ``[project.scripts]`` entry modules of
    ``pyproject.toml`` need no importer;
(d) ``repro.observe`` imports nothing from ``repro.experiments``;
(e) *one world builder* -- no ``src/repro`` module but
    ``repro.experiments.site`` (and the kernel itself) constructs a
    ``Simulator`` or a ``Datacenter``: every world is ``build_site``'s,
    from host rows.

What (a) counts as a call site: ``f(...)`` or ``mod.f(...)`` resolved
through the caller's imports (and the packages' re-exports) for
module-level functions and classes, ``cls(...)`` inside the class
itself, and ``anything.m(...)`` for a method ``m``.  A call that
spreads ``*args`` or ``**kwargs`` passes everything, and so does a
function or method used as a value -- put in a table or handed over as
a callback -- since its callers cannot be seen.  A ``"module:function"``
string in a package (the lazy :data:`repro.experiments.EXPERIMENTS`
rows) names ``package.module.function`` as such a value, and imports
``package.module`` for (c).  ``__init__`` of a subclassed class is
skipped: ``super().__init__`` passes those.

An entry in ``UNPASSED_OK`` / ``UNENTERED_OK`` / ``UNIMPORTED_OK`` keeps
a name on purpose, and its reason starts with one of the tags in
``REASON``:

- ``outside input:`` the value comes from outside the program (scenario
  JSON through ``FaultInjector.inject(**params)``, ``argv``);
- ``paper §N:`` the behaviour is the paper's own (§1-§4) -- §5 future
  work does not qualify;
- ``ROADMAP item N:`` the ROADMAP names it as the knob a planned
  workload sets or a target a planned fuzzer reaches;
- ``test seam:`` a test passes an *object* through it (a fake, a
  clock); a value does not qualify;
- ``error path:`` it runs only when a call fails, and the reason names
  the tier-1 test that drives it, ``test_module::test_name``;
- ``benchmark:`` a ``benchmarks/e2e`` file passes it, so removing it is
  a change to the benchmark.

An ``UNIMPORTED_OK`` entry the lint no longer needs fails too.
"""

import ast
import collections
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

REASON = re.compile(r"(outside input"
                    r"|paper §[1-4](\.\d+)*|ROADMAP item \d+|test seam"
                    r"|error path|benchmark): \S")

UNPASSED_OK = {
    "repro.cli.main(argv)": "outside input: the command line",
    "repro.faults.injector.FaultInjector.app_crash(category)":
        "outside input: scenario JSON passes it through "
        "FaultInjector.inject",
    "repro.faults.injector.FaultInjector.app_hang(category)":
        "outside input: scenario JSON passes it through "
        "FaultInjector.inject",
    "repro.faults.injector.FaultInjector.memory_leak(mb)":
        "outside input: scenario JSON passes it through "
        "FaultInjector.inject",
    "repro.faults.injector.FaultInjector.nic_failure(ifname)":
        "outside input: scenario JSON passes it through "
        "FaultInjector.inject",
    "repro.metrics.samplers.SamplerSuite.__init__(log_maxlen)":
        "ROADMAP item 1: the aged-world workload shrinks the log ring "
        "through it to reach a wrap",
    "repro.cluster.process.ProcessTable.spawn(args)":
        "paper §3.5: the only writer of the arguments SimProc.cmdline and "
        "ProcessAccountant.per_command_args group processes by",
    "repro.cluster.process.ProcessTable.update(state)":
        "paper §3.5: the only writer of a blocked process, which the "
        "vmstat sampler's blocked column counts",
    "repro.faults.injector.FaultInjector.disk_fill(mount)":
        "outside input: scenario JSON passes it through "
        "FaultInjector.inject",
    "repro.relocate.orchestrator.ServiceRelocator._rollback(claimed)":
        "error path: a rolled-back relocation gives its claimed spare "
        "back; test_relocate_orchestrator"
        "::test_relocation_budget_blows_to_rollback",
    "repro.observe.incidents.build_reports(qos_step)":
        "benchmark: benchmarks/e2e/workloads.py passes qos_step=60.0",
    "repro.observe.incidents.reconcile(qos_step)":
        "benchmark: benchmarks/e2e/workloads.py passes qos_step=60.0",
}

UNENTERED_OK = {
    "repro.apps.database.Database.db_metrics":
        "paper §3.6: the ten database measurements",
    "repro.apps.frontend.FrontendApp.login":
        "paper §3.1: the only writer of host.logged_in_users, the users "
        "column of the DLSP and the DGSPL",
    "repro.apps.frontend.FrontendApp.logout":
        "paper §3.1: login's pair over host.logged_in_users",
    "repro.apps.webserver.WebServer.http_get":
        "paper §3.4: a web server's probe is an http get",
    "repro.cluster.filesystem.FileSystem.drop_head":
        "ROADMAP item 1: the aged-world workload's sampler log wrap",
    "repro.cluster.hardware.Component.degrade":
        "paper §3.3: the only source of the degraded units the hardware "
        "agent's prtdiag rule diagnoses",
    "repro.cluster.process.SimProc.advance":
        "paper §3.5: microstate accounting advances each process's clocks",
    "repro.cluster.process.ProcessTable.advance":
        "paper §3.5: microstate accounting advances each process's clocks",
    "repro.cluster.process.SimProc.cmdline":
        "paper §3.5: processes per command name and arguments read it",
    "repro.controlplane.ledger.ConditionLedger._force_trim":
        "error path: a lagging consumer blows the backlog cap; "
        "test_controlplane_ledger::test_overrun_after_force_trim",
    "repro.core.admin.AdministrationServers._pool_write_failed":
        "error path: the NFS pool refuses a write; test_core_admin_watchdog"
        "::test_pool_write_failure_counted_and_logged",
    "repro.core.parts.PartSwitches.activate":
        "paper §3.3: each of the five parts can be activated or "
        "deactivated",
    "repro.core.parts.PartSwitches.deactivate":
        "paper §3.3: each of the five parts can be activated or "
        "deactivated",
    "repro.core.parts.PartSwitches._flip":
        "paper §3.3: activate and deactivate flip a part through it",
    "repro.core.resource_agent.data_growth":
        "paper §3.3: a diagnosing rule no product fault reaches -- /data "
        "filling up is growth, a capacity decision for humans",
    "repro.core.resource_agent.io_saturated":
        "paper §3.3: a diagnosing rule no product fault reaches -- a slow "
        "disk under I/O saturation",
    "repro.core.service_agent.host_overloaded":
        "paper §3.3: a diagnosing rule no product fault reaches -- a dead "
        "service on an overloaded host",
    "repro.core.thresholds.Baselines.adjust":
        "paper §3.6: baselines adapted from observation, a behaviour to "
        "wire",
    "repro.federation.build.Federation._page":
        "ROADMAP item 3: a failed cross-site relocation pages through it; "
        "the federated fuzzer's relocator races reach it",
    "repro.metrics.accounting.ProcessAccountant.per_command":
        "paper §3.5: processes per command name",
    "repro.metrics.accounting.ProcessAccountant.per_command_args":
        "paper §3.5: processes per command name and arguments",
    "repro.metrics.accounting.ProcessAccountant.per_cpu":
        "paper §3.5: processes per CPU",
    "repro.metrics.accounting.ProcessAccountant.per_user_command":
        "paper §3.5: processes per user and command name",
    "repro.metrics.timeseries.merge_by_timestamp":
        "paper §3.5: measurements associated by matching timestamps",
    "repro.metrics.timeseries.TimeSeries.times":
        "paper §3.5: merge_by_timestamp matches on it",
    "repro.net.nameservice.NameService.lookup":
        "ROADMAP item 3: FederatedNameService.resolve_service asks a zone "
        "through it",
    "repro.net.nameservice.FederatedNameService._ask":
        "ROADMAP item 3: resolve_service delegates through it",
    "repro.net.nameservice.FederatedNameService.resolve_service":
        "ROADMAP item 3: a federated fuzzer target -- other sites find a "
        "cross-site cutover through it",
    "repro.net.nameservice.NameService.slow":
        "paper §3.6: the only source of a slow name server, which the "
        "OS/network agent's dns-slow finding and causal rule diagnose",
    "repro.ontology.base.encode_list":
        "paper §3.1.4: the hand-kept ISSL is written through it",
    "repro.ontology.base.decode_list":
        "paper §3.1.4: the hand-kept ISSL is read through it",
    "repro.ontology.base.OntologyDoc.add":
        "paper §3.1.4: the hand-kept ISSL is written through it",
    "repro.ontology.base.OntologyDoc._check_key":
        "paper §3.1.4: OntologyDoc.add and render check keys through it",
    "repro.ontology.base.OntologyDoc.render":
        "paper §3.1.4: the hand-kept ISSL is written through it",
    "repro.ontology.base.OntologyDoc.write_to":
        "paper §3.1.4: the hand-kept ISSL is written through it",
    "repro.ontology.slkt.Slkt.check":
        "paper §3.1: the SLKT is the constraint set a live host is "
        "checked against",
    "repro.parallel.ReplicationError.__init__":
        "error path: a replication raises; "
        "test_parallel_cli::test_serial_failure_reports_offending_seed",
    "repro.parallel._failed":
        "error path: a replication raises; "
        "test_parallel_cli::test_pool_failure_reports_same_seed_as_serial",
    "repro.persist.checkpoint._refuse_constant":
        "error path: a checkpoint holds a NaN or Infinity literal; "
        "test_persist_declared"
        "::test_hostile_checkpoint_files_are_refused_naming_the_path",
    "repro.relocate.crosssite.CrossSiteRelocator.relocate_host":
        "ROADMAP item 3: a federated fuzzer target -- the per-host "
        "cross-site escalation",
    "repro.relocate.crosssite.CrossSiteRelocator._fail":
        "ROADMAP item 3: a failed cross-site relocation; the federated "
        "fuzzer's relocator races reach it",
    "repro.relocate.spares.SparePool.release":
        "error path: a rolled-back relocation gives its spare back; "
        "test_relocate_orchestrator::test_relocation_budget_blows_to_rollback",
    "repro.traffic.engine.FluidTrafficEngine._account_shed":
        "error path: a door with no live server sheds its batch; "
        "test_traffic_engine"
        "::test_fluid_crash_fails_requests_then_shed_recovers",
    "repro.traffic.frontdoor.GeoFrontDoor.flag_up":
        "ROADMAP item 3: a lost site's recovery, which the fuzzer's "
        "flapping WAN partitions reach",
}

UNIMPORTED_OK = {
    "repro.metrics.microstate":
        "paper §3.5: microstate accounting of every process",
    "repro.ontology.issl":
        "paper §3.1.4: the index static service lists, kept by hand",
}


def _is_product(path):
    return not (path.startswith(TESTS + os.sep)
                or os.path.basename(path).startswith("test_"))


def _product_files():
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs
                         if not d.startswith(".") and d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(top, name)
            if name.endswith(".py") and _is_product(path):
                yield path


def _module_of(path):
    rel = os.path.relpath(path, SRC if path.startswith(SRC + os.sep)
                          else ROOT)[:-3].split(os.sep)
    return ".".join(rel[:-1] if rel[-1] == "__init__" else rel)


def _is_package(path):
    return os.path.basename(path) == "__init__.py"


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        getattr(t, "id", "") == "__all__" for t in node.targets)


class _Source:
    """Every product file parsed once, with its imports as qualified
    names."""

    def __init__(self):
        self.text, self.tree, self.names = {}, {}, {}
        reexport = {}
        for path in _product_files():
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
                        if (node in tree.body and path.startswith(SRC)
                                and node.module != module):
                            reexport[f"{module}.{a.asname or a.name}"] = \
                                f"{node.module}.{a.name}"
            self.names[path] = names
        self.reexport = reexport

    def resolve(self, name):
        while name in self.reexport:
            name = self.reexport[name]
        return name

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
        return self.resolve(".".join(reversed(parts)))


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
        module = _module_of(path)
        if not path.startswith(SRC) or module in UNIMPORTED_OK:
            continue
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
        if key in escaped or name in UNENTERED_OK or \
                name.rsplit(".", 1)[0] in UNENTERED_OK:
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


def _naming_text(path, source):
    """The file's text without its ``__all__`` lists and, in a package
    ``__init__``, its imports: neither names a definition."""
    lines = source.text[path].splitlines()
    for node in ast.walk(source.tree[path]):
        if _is_all(node) or (_is_package(path) and isinstance(
                node, (ast.Import, ast.ImportFrom))):
            lines[node.lineno - 1:node.end_lineno] = \
                [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _unnamed_definitions(source):
    words = collections.Counter()
    for path in source.text:
        words.update(re.findall(r"\w+", _naming_text(path, source)))
    defined = collections.Counter(
        node.name for tree in source.tree.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    found = []
    for path, tree in source.tree.items():
        module = _module_of(path)
        if not path.startswith(SRC) or module in UNIMPORTED_OK:
            continue
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


def _script_modules():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        text = fh.read()
    scripts = text.split("[project.scripts]", 1)[-1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"([\w.]+):\w+"', scripts))


def _unimported_modules(source):
    imported = _script_modules()
    for path, tree in source.tree.items():
        module = _module_of(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and not _is_package(path):
                targets = [a.name for a in node.names]
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and not _is_package(path)):
                targets = [node.module] + [f"{node.module}.{a.name}"
                                           for a in node.names]
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and re.fullmatch(r"\w+:\w+", node.value)):
                targets = [f"{module}.{node.value.split(':')[0]}"]
            else:
                continue
            for target in targets:
                parts = source.resolve(target).split(".")
                imported.update(".".join(parts[:i])
                                for i in range(1, len(parts) + 1)
                                if ".".join(parts[:i]) != module)
    return [_module_of(path) for path in source.tree
            if path.startswith(SRC) and not _is_package(path)
            and _module_of(path) not in imported]


@pytest.fixture(scope="module")
def source():
    return _Source()


def test_every_defaulted_parameter_is_passed_somewhere(source):
    found = _unpassed_defaults(source)
    unexplained = sorted(set(found) - set(UNPASSED_OK))
    assert not unexplained, (
        "no product call site passes these; make each the constant it "
        "always is, or allow-list it with a reason:\n  "
        + "\n  ".join(unexplained))


def test_every_public_definition_is_named_somewhere(source):
    found = _unnamed_definitions(source)
    unexplained = sorted(set(found) - set(UNENTERED_OK))
    assert not unexplained, (
        "no product file names these but their own def; delete each, or "
        "allow-list it with a reason:\n  " + "\n  ".join(unexplained))


def test_every_module_is_imported_by_product_code(source):
    found = _unimported_modules(source)
    unexplained = sorted(set(found) - set(UNIMPORTED_OK))
    assert not unexplained, (
        "no product file imports these; delete each, or allow-list it "
        "with a reason:\n  " + "\n  ".join(unexplained))
    assert not sorted(set(UNIMPORTED_OK) - set(found)), "stale allow-list"


def test_every_allow_list_entry_carries_a_reason_tag():
    untagged = sorted(name for allowed in (UNPASSED_OK, UNENTERED_OK,
                                           UNIMPORTED_OK)
                      for name, why in allowed.items()
                      if not REASON.match(why))
    assert not untagged, "no reason tag: " + ", ".join(untagged)


def _names_a_tier1_test(why):
    """Whether ``why`` names ``test_module::test_name`` and that test
    exists under ``tests/``."""
    test = re.search(r"([\w/]+)::(\w+)", why)
    path = test and os.path.join(TESTS, test[1] + ".py")
    if not (path and os.path.exists(path)):
        return False
    with open(path) as fh:
        return re.search(rf"def {test[2]}\(", fh.read()) is not None


def test_every_error_path_names_a_tier1_test_that_exists():
    unnamed = sorted(name for allowed in (UNPASSED_OK, UNENTERED_OK,
                                          UNIMPORTED_OK)
                     for name, why in allowed.items()
                     if why.startswith("error path:")
                     and not _names_a_tier1_test(why))
    assert not unnamed, "no such tier-1 test: " + ", ".join(unnamed)


def test_observe_imports_nothing_from_experiments(source):
    imported = {node.module if isinstance(node, ast.ImportFrom) else a.name
                for path, tree in source.tree.items()
                if _module_of(path).startswith("repro.observe")
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert "repro.faults.models" in imported
    assert not [m for m in imported if m.startswith("repro.experiments")]


def test_only_build_site_makes_a_world(source):
    world = {"repro.sim.kernel.Simulator",
             "repro.cluster.datacenter.Datacenter"}
    makers = collections.defaultdict(list)
    for path, tree in source.tree.items():
        module = _module_of(path)
        if path.startswith(SRC) and not (module == "repro.sim"
                                         or module.startswith("repro.sim.")):
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and source.qualify(path, node.func) in world):
                    makers[module].append(node.lineno)
    assert makers.pop("repro.experiments.site", None), \
        "the lint no longer sees build_site's own construction"
    assert not makers, (
        "a world built outside repro.experiments.site.build_site -- give "
        "it host rows instead:\n  " + "\n  ".join(
            f"src/{m.replace('.', '/')}.py:{lines}"
            for m, lines in sorted(makers.items())))
