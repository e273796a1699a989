"""``--shard i/n`` deals tier-1 into ``n`` parts that partition exactly
what was collected, balanced by the committed duration table."""

import pytest

from tests.conftest import COLLECTED
from tests.shard_durations import load_table, plan


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_shards_partition_the_collection(request, n):
    collected = request.config.stash[COLLECTED]
    part = plan(collected, n, load_table())
    shards = [[k for k in collected if part[k] == i] for i in range(n)]
    assert sorted(k for shard in shards for k in shard) == sorted(collected)
    assert len(set(collected)) == len(collected)
    # the split is the same in any collection order
    assert plan(reversed(collected), n, load_table()) == part


def test_this_run_holds_the_part_it_asked_for(request):
    i, n = map(int, request.config.getoption("--shard").split("/"))
    collected = request.config.stash[COLLECTED]
    part = plan(collected, n, load_table())
    assert sorted(item.nodeid for item in request.session.items) == sorted(
        k for k in collected if part[k] == i - 1)


def test_the_timed_parts_differ_by_at_most_one_test():
    """Longest first, each to the lightest part: the parts' tabled
    times end within the longest test of each other."""
    table = load_table()
    assert table, "tests/durations.json is missing"
    for n in (2, 3):
        part = plan(table, n, table)
        loads = [sum(t for k, t in table.items() if part[k] == i)
                 for i in range(n)]
        assert max(loads) - min(loads) <= max(table.values())


def test_a_test_the_table_does_not_know_goes_by_crc32():
    import zlib
    part = plan(["a::new", "b::known"], 2, {"b::known": 1.0})
    assert part["a::new"] == zlib.crc32(b"a::new") % 2
    assert part["b::known"] == 0
