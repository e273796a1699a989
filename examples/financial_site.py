#!/usr/bin/env python
"""The headline experiment: a year at the financial customer site.

Reproduces Figure 2 -- downtime hours by error category for one year of
manual operations (BMC Patrol + on-call administrators) versus one year
with the intelliagent stack, over the *same* sampled fault arrivals.

Run:  python examples/financial_site.py [--replications N]
"""

import argparse

from repro.experiments import fig2
from repro.experiments.report import table


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--replications", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("simulating the pilot site: 100 database / 55 TP / 60 "
          "front-end servers, one year per arm ...")
    result = fig2.run_replicated(args.seed, replications=args.replications)

    print()
    print(fig2.format_result(result))

    print()
    print(table(
        ["period", "manual detection (h)", "agent detection (h)"],
        [(p, round(result["detection_before"][p], 2),
          round(result["detection_after"][p], 3))
         for p in ("day", "overnight", "weekend")],
        title="Detection latency by period (paper: 1 h / 10 h / 25 h "
              "manual; <=5 min with agents)"))

    print()
    print("notes:")
    print("  - the before/after comparison is paired: both pipelines "
          "score the same fault draw")
    print("  - the paper's own after-category values sum to 39 h "
          "although its text says 31 h; we compare against the "
          "categories")


if __name__ == "__main__":
    main()
