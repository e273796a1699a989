"""The bookkeeping of ``tests/reachability.py``, on a module written
here: how a definition is keyed and named, what an armed hook sees --
entered functions, unexecuted statements, parameters bound only to
their default -- and the ways the job fails.  No product entry point
runs."""

import importlib.util
import os

import pytest

from tests.reachability import (Trace, constants, definitions, unexecuted,
                                verdict)
from tests.test_surface import REASON

MODULE = '''\
def deco(fn):
    return fn


@deco
@deco
def decorated():
    return 1


def outer():
    def inner():
        return 2
    return inner


def never():
    return 3


def branches(x):
    if x == 9:
        x = 0
        x += 1
    try:
        x = int(x)
    except ValueError:
        x = None
    if x is None:
        raise KeyError(x)
    return x


def knobs(a, b=2, *, c="c", d=None):
    return a


def spread(**kw):
    return knobs(1, **kw)


AT_IMPORT = decorated()
'''


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "probe_module.py"
    path.write_text(MODULE)
    return str(path)


def _imported(path, armed_before_import, calls=(), fed=frozenset()):
    """The hook that watched ``path``'s import -- armed before it or
    only after it -- and ``outer()``, ``branches(1)`` and ``calls``,
    with the options ``fed``."""
    spec = importlib.util.spec_from_file_location("probe_module", path)
    mod = importlib.util.module_from_spec(spec)
    if not armed_before_import:
        spec.loader.exec_module(mod)
    with Trace(os.path.dirname(path)) as trace:
        trace.fed = fed
        if armed_before_import:
            spec.loader.exec_module(mod)
        mod.outer()
        mod.branches(1)
        for call in calls:
            call(mod)
    return trace


def _unexecuted(path, trace, name):
    """``{statement source: kind}`` of what never ran in ``name``."""
    with open(path) as fh:
        text = fh.read().splitlines()
    fn = next(node for key, (qualified, node) in definitions(path, "m").items()
              if qualified == f"m.{name}")
    return {text[stmt.lineno - 1].strip(): kind
            for stmt, kind in unexecuted(fn, trace.ran()[path])}


def _constant(path, trace):
    return constants(definitions(path, "m"), trace.constant(), {}, (),
                     REASON)["constant"]


def test_a_decorated_def_is_keyed_at_its_first_decorator(module):
    defined = definitions(module, "m")
    assert defined[(module, 5)][0] == "m.decorated"
    assert (module, 7) not in defined
    assert (module, 5) in _imported(module, armed_before_import=True).entered()


def test_a_nested_def_is_named_outer_dot_inner(module):
    assert sorted(name for name, _ in definitions(module, "m").values()) == [
        "m.branches", "m.deco", "m.decorated", "m.knobs", "m.never",
        "m.outer", "m.outer.inner", "m.spread"]


def test_import_time_calls_count_only_with_the_hook_armed_first(module):
    defined = definitions(module, "m")
    before = verdict(defined, _imported(module, True).entered(), {}, (),
                     REASON)
    after = verdict(defined, _imported(module, False).entered(), {}, (),
                    REASON)
    assert before["unentered"] == ["m.knobs", "m.never", "m.outer.inner",
                                   "m.spread"]
    assert after["unentered"] == ["m.deco", "m.decorated", "m.knobs",
                                  "m.never", "m.outer.inner", "m.spread"]


def test_an_unlisted_a_stale_and_an_untagged_entry_each_fail(module):
    defined = definitions(module, "m")
    seen = _imported(module, True, [lambda m: m.knobs(0), lambda m: m.spread()]
                     ).entered()
    report = verdict(defined, seen, {
        "m.outer.inner": "primitive: returned, never called",
        "m.outer": "primitive: entered, so stale",
    }, (), REASON)
    assert report["unlisted"] == ["m.never"]
    assert report["stale"] == ["m.outer"]
    assert report["untagged"] == []
    untagged = verdict(defined, seen, {"m.never": "nobody calls it",
                                       "m.outer.inner": "primitive: x"},
                       (), REASON)
    assert (untagged["unlisted"], untagged["stale"],
            untagged["untagged"]) == ([], [], ["m.never"])


def test_a_module_on_unimported_ok_covers_its_functions(module):
    report = verdict(definitions(module, "m"), set(), {}, ("m",), REASON)
    assert report["unentered"] == report["entered"] == []


def test_a_never_taken_if_body_is_a_branch(module):
    missed = _unexecuted(module, _imported(module, True), "branches")
    assert missed["x = 0"] == missed["x += 1"] == "branch"
    assert "if x == 9:" not in missed and "return x" not in missed


def test_a_raise_and_an_except_body_are_errors(module):
    missed = _unexecuted(module, _imported(module, True), "branches")
    assert missed == {"x = 0": "branch", "x += 1": "branch",
                      "x = None": "error", "raise KeyError(x)": "error"}
    taken = _imported(module, True, [
        lambda m: m.branches(9),
        lambda m: pytest.raises(KeyError, m.branches, "x")])
    assert _unexecuted(module, taken, "branches") == {}


def test_only_its_default_by_position_keyword_and_spread_is_constant(module):
    trace = _imported(module, True, [
        lambda m: m.knobs(0), lambda m: m.knobs(0, 2),
        lambda m: m.knobs(0, b=2, c="c"), lambda m: m.spread(d=None),
        lambda m: m.spread(c="".join("c"))])
    assert _constant(module, trace) == ["m.knobs(b)", "m.knobs(c)",
                                        "m.knobs(d)"]


def test_a_parameter_passed_another_value_is_not_constant(module):
    trace = _imported(module, True, [
        lambda m: m.knobs(0), lambda m: m.knobs(0, 2.0),
        lambda m: m.spread(c="e"), lambda m: m.knobs(0, d=False)])
    assert _constant(module, trace) == []


def test_a_parameter_an_option_of_the_command_feeds_is_not_constant(module):
    fed = _imported(module, True, [lambda m: m.knobs(0)], fed={"c"})
    assert _constant(module, fed) == ["m.knobs(b)", "m.knobs(d)"]


def test_an_unlisted_a_stale_and_an_untagged_parameter_each_fail(module):
    trace = _imported(module, True, [lambda m: m.knobs(0, 3)])
    report = constants(definitions(module, "m"), trace.constant(), {
        "m.knobs(c)": "primitive: x", "m.knobs(b)": "primitive: passed 3",
        "m.never(x)": "error path: lint (a) flags it",
        "m.knobs(d)": "nobody passes it"}, ["m.never(x)"], REASON)
    assert report["constant"] == ["m.knobs(c)", "m.knobs(d)"]
    assert report["unlisted"] == []
    assert report["stale"] == ["m.knobs(b)"]
    assert report["untagged"] == ["m.knobs(d)"]
