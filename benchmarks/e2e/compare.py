"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the
second set).  Per workload x end-to-end metric it prints both medians,
the ratio B/A and the metric's bound from ``BENCHMARK.json``, and a
verdict:

- ``regression`` -- B's median is worse than A's by more than the bound;
- ``unresolved`` -- not a regression, but the two sides' min-max ranges
  overlap by more than the bound (as a share of A's median): the
  run-to-run spread is too wide to call the metric unchanged;
- ``ok`` -- neither.

It also says whether each workload's digest and exact counts agree.
Exit code 1 on any regression or a higher ``ops_failed / ops_attempted``
on any workload, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: per-layer units whose values repeat exactly for a fixed seed
EXACT_UNITS = ("count", "B", "lines")


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    worse = (b["median"] / a["median"] if better == "lower"
             else a["median"] / b["median"]) - 1.0
    if worse > bound:
        return "regression"
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    if overlap / a["median"] > bound:
        return "unresolved"
    return "ok"


def compare(a_doc: dict, b_doc: dict, spec: dict) -> int:
    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS}
    bad = 0
    print(f"A: commit {a_doc['manifest']['commit'][:12]} seed "
          f"{a_doc['manifest']['seed']}   B: commit "
          f"{b_doc['manifest']['commit'][:12]} seed "
          f"{b_doc['manifest']['seed']}")
    for doc, side in ((a_doc, "A"), (b_doc, "B")):
        if doc["manifest"]["noisy"]:
            print(f"{side} was measured on a loaded box (noisy)")
    print(f"{'workload':<20}{'metric':<13}{'A':>11}{'B':>11}{'B/A':>8}"
          f"{'bound':>7}  verdict")
    for name in (w["name"] for w in spec["workloads"]):
        a, b = a_doc["workloads"].get(name), b_doc["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<20}missing on {'A' if a is None else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            ra, rb = a["e2e"].get(metric["name"]), b["e2e"].get(metric["name"])
            if ra is None or rb is None:
                print(f"{name:<20}{metric['name']:<13}not measured")
                bad += 1
                continue
            v = verdict(ra, rb, metric["bound"], metric["better"])
            bad += v == "regression"
            print(f"{name:<20}{metric['name']:<13}{ra['median']:>11.4f}"
                  f"{rb['median']:>11.4f}{rb['median'] / ra['median']:>8.3f}"
                  f"{metric['bound']:>7.2f}  {v}")
        fa = a["ops_failed"] / a["ops_attempted"]
        fb = b["ops_failed"] / b["ops_attempted"]
        if fb > fa:
            bad += 1
        differing = sorted(k for k in exact
                           if a["layers"].get(k) != b["layers"].get(k))
        print(f"{name:<20}digest {'same' if a['digest'] == b['digest'] else 'DIFFERENT'}"
              f"; exact counts "
              f"{'identical' if not differing else 'differ: ' + ', '.join(differing)}"
              f"; ops failed {a['ops_failed']}/{a['ops_attempted']} -> "
              f"{b['ops_failed']}/{b['ops_attempted']}"
              f"{'  MORE FAILURES' if fb > fa else ''}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a_doc, b_doc, spec)


if __name__ == "__main__":
    sys.exit(main())
