"""How ``--shard i/n`` splits tier-1: by measured time, not by count.

``tests/durations.json`` maps each test's node id to the seconds its
setup, call and teardown took in one file-order run.  A shard plan
deals the collected tests out longest first, each to the part with the
least time so far; a test the table does not know (new or renamed
since it was written) goes to part ``crc32(node id) % n``.  Nothing
depends on ``hash()``, so the split is the same under any
``PYTHONHASHSEED`` and in any ``--order``.

Regenerate the table after adding, removing or much changing a slow
test (one full tier-1 run; it is written only if every test passed)::

    PYTHONPATH=src python tests/shard_durations.py
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from typing import Dict, Iterable, List

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "durations.json")


def load_table() -> Dict[str, float]:
    try:
        with open(TABLE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def plan(nodeids: Iterable[str], n: int,
         table: Dict[str, float]) -> Dict[str, int]:
    """``node id -> part`` (0-based) for ``n`` parts."""
    nodeids = list(nodeids)
    loads = [0.0] * n
    part = {}
    for nodeid in sorted((k for k in nodeids if k in table),
                         key=lambda k: (-table[k], k)):
        part[nodeid] = best = loads.index(min(loads))
        loads[best] += table[nodeid]
    for nodeid in nodeids:
        if nodeid not in table:
            part[nodeid] = zlib.crc32(nodeid.encode()) % n
    return part


class _Recorder:
    """A pytest plugin summing each test's phase durations."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}

    def pytest_runtest_logreport(self, report):
        self.seconds[report.nodeid] = (self.seconds.get(report.nodeid, 0.0)
                                       + report.duration)


def main(argv: List[str]) -> int:
    import pytest
    recorder = _Recorder()
    code = pytest.main(["-p", "no:cacheprovider", *argv],
                       plugins=[recorder])
    if code == 0:
        with open(TABLE, "w") as fh:
            json.dump({k: round(v, 3) for k, v in recorder.seconds.items()},
                      fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {TABLE}: {len(recorder.seconds)} tests, "
              f"{sum(recorder.seconds.values()):.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
