"""The bookkeeping of ``tests/reachability.py``, on a module written
here: how a definition is keyed and named, what an armed hook sees, and
the three ways the job fails.  No product entry point runs."""

import cProfile
import importlib.util

import pytest

from tests.reachability import definitions, entered, verdict
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


AT_IMPORT = decorated()
'''


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "probe_module.py"
    path.write_text(MODULE)
    return str(path)


def _imported(path, armed_before_import):
    """What a profile saw of ``path``'s import, armed before it or
    only after it."""
    profile = cProfile.Profile(builtins=False)
    spec = importlib.util.spec_from_file_location("probe_module", path)
    mod = importlib.util.module_from_spec(spec)
    if not armed_before_import:
        spec.loader.exec_module(mod)
    profile.enable()
    if armed_before_import:
        spec.loader.exec_module(mod)
    mod.outer()
    profile.disable()
    return entered(profile)


def test_a_decorated_def_is_keyed_at_its_first_decorator(module):
    defined = definitions(module, "m")
    assert defined[(module, 5)] == "m.decorated"
    assert (module, 7) not in defined
    assert (module, 5) in _imported(module, armed_before_import=True)


def test_a_nested_def_is_named_outer_dot_inner(module):
    assert sorted(definitions(module, "m").values()) == [
        "m.deco", "m.decorated", "m.never", "m.outer", "m.outer.inner"]


def test_import_time_calls_count_only_with_the_hook_armed_first(module):
    defined = definitions(module, "m")
    before = verdict(defined, _imported(module, True), {}, (), REASON)
    after = verdict(defined, _imported(module, False), {}, (), REASON)
    assert before["unentered"] == ["m.never", "m.outer.inner"]
    assert after["unentered"] == ["m.deco", "m.decorated", "m.never",
                                  "m.outer.inner"]


def test_an_unlisted_a_stale_and_an_untagged_entry_each_fail(module):
    defined = definitions(module, "m")
    seen = _imported(module, True)
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
