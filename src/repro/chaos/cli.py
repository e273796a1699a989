"""``repro-exp chaos`` -- the chaos toolbox from the terminal.

.. code-block:: text

    repro-exp chaos run --episodes 200 --seed 0
    repro-exp chaos run --planted-bug --max-violations 1
    repro-exp chaos corpus --dir tests/corpus
    repro-exp chaos replay tests/corpus
    repro-exp chaos replay tests/corpus/cascade.json --planted-bug
    repro-exp chaos replay failing.json --checkpoint-dir epochs
    repro-exp chaos replay failing.json --from-checkpoint epochs/ep-...json
    repro-exp chaos replay tests/corpus/site-loss.json --checkpoint-dir fed-epochs
    repro-exp chaos shrink failing.json --planted-bug --out minimal.json

``run`` drives a coverage-guided fuzz campaign and prints the coverage
growth curve, the rarest markers and any oracle violations; ``corpus``
(re)generates the committed builder scenarios; ``replay`` runs
scenario files (or every ``*.json`` in a directory) and exits non-zero
if any oracle fires -- single-site and federated scenarios alike, so
``--planted-bug``, ``--checkpoint-dir`` and ``--from-checkpoint`` work
on both; ``shrink`` reduces a violating scenario file to a
minimal reproducer that still trips the same oracles.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

from repro.chaos.scenario import Scenario, build_corpus

__all__ = ["main"]


def _load_scenarios(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of scenario files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(os.path.join(path, fn)
                       for fn in sorted(os.listdir(path))
                       if fn.endswith(".json"))
        else:
            out.append(path)
    if not out:
        raise SystemExit("no scenario files found")
    return out


def _describe(sc: Scenario) -> str:
    lines = [f"{sc.scenario_id}  horizon={sc.horizon:.0f}s "
             f"seed={sc.seed}  {len(sc.events)} events"]
    for ev in sc.events:
        extra = "".join(f" {k}={v}" for k, v in ev.params)
        lines.append(f"    t={ev.time:7.0f}  {ev.op:18s} "
                     f"{ev.target}{extra}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    from repro.chaos.fuzzer import ScenarioFuzzer

    fuzzer = ScenarioFuzzer(
        seed=args.seed, episodes=args.episodes, batch=args.batch,
        planted_bug=args.planted_bug,
        max_violations=args.max_violations, processes=args.processes)
    result = fuzzer.run()

    print(f"chaos fuzz  seed={result.seed}  episodes={result.episodes}  "
          f"corpus={len(result.corpus)}  "
          f"admitted={len(result.admitted)}")
    growth = result.coverage.growth
    marks = sorted({0, len(growth) // 4, len(growth) // 2,
                    3 * len(growth) // 4, len(growth) - 1})
    curve = "  ".join(f"{growth[i][0]}ep:{growth[i][1]}"
                      for i in marks if 0 <= i < len(growth))
    print(f"coverage    {len(result.coverage)} markers  [{curve}]")
    print("rarest      " + ", ".join(
        f"{m}({n})" for m, n in result.coverage.rarest(6)))
    for err in result.errors:
        print(f"worker error: {err}")
    if not result.violations:
        print("violations  none -- every episode satisfied every oracle")
    for v in result.violations:
        print(f"\nVIOLATION  {v['scenario_id']}  "
              f"oracles={','.join(v['violated'])}")
        for verdict in v["verdicts"]:
            for msg in verdict["violations"]:
                print(f"    {msg}")
        print(_describe(Scenario.from_json(v["scenario_json"])))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n[campaign result written to {args.out}]")
    return 1 if (result.violations or result.errors) else 0


def _cmd_corpus(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    for name, sc in sorted(build_corpus(args.seed).items()):
        path = os.path.join(args.dir, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(sc.to_json())
        print(f"{path}  ({len(sc.events)} events, "
              f"horizon {sc.horizon:.0f}s)")
    return 0


def _cmd_replay(args) -> int:
    from repro.chaos.executor import run_episode

    paths = _load_scenarios(args.scenarios)
    if args.from_checkpoint and len(paths) != 1:
        raise SystemExit(
            "--from-checkpoint resumes exactly one scenario file")
    failures = 0
    for path in paths:
        with open(path) as fh:
            sc = Scenario.from_json(fh.read())
        ep = run_episode(sc, planted_bug=args.planted_bug,
                         checkpoint_dir=args.checkpoint_dir,
                         checkpoint_every=args.checkpoint_every,
                         from_checkpoint=args.from_checkpoint)
        status = "ok" if ep.ok else "VIOLATED"
        print(f"{status:9s} {sc.scenario_id:32s} "
              f"applied={len(ep.applied)} fizzled={len(ep.fizzled)} "
              f"coverage={len(ep.coverage)}")
        if not ep.ok:
            failures += 1
            for msg in ep.violations:
                print(f"    {msg}")
    return 1 if failures else 0


def _cmd_shrink(args) -> int:
    from repro.chaos.executor import run_episode
    from repro.chaos.shrink import shrink_episode

    with open(args.scenario) as fh:
        sc = Scenario.from_json(fh.read())
    ep = run_episode(sc, planted_bug=args.planted_bug)
    if ep.ok:
        print(f"{sc.scenario_id}: no oracle fires; nothing to shrink")
        return 1
    print(f"shrinking {sc.scenario_id} "
          f"(oracles: {', '.join(ep.violated)}) ...")
    res = shrink_episode(sc, ep.violated, planted_bug=args.planted_bug)
    print(f"{len(res.original.events)} -> {len(res.shrunk.events)} "
          f"events in {res.rounds} ddmin rounds "
          f"({res.tested} episodes executed)")
    print(_describe(res.shrunk))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(res.shrunk.to_json())
        print(f"[minimal reproducer written to {args.out}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-exp chaos",
        description="Coverage-guided chaos fuzzing of the healing "
                    "pipeline: scenario DSL, invariant oracles, "
                    "shrinking reproducers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a fuzz campaign")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--episodes", type=int, default=60)
    p_run.add_argument("--batch", type=int, default=8)
    p_run.add_argument("--max-violations", type=int, default=5)
    p_run.add_argument("--processes", type=int, default=None)
    p_run.add_argument("--planted-bug", action="store_true",
                       help="arm the test-only planted regression")
    p_run.add_argument("--out", metavar="FILE", default=None,
                       help="write the campaign result as JSON")

    p_corpus = sub.add_parser("corpus",
                              help="write the builder corpus as JSON")
    p_corpus.add_argument("--dir", default="tests/corpus")
    p_corpus.add_argument("--seed", type=int, default=0)

    p_replay = sub.add_parser("replay",
                              help="replay scenario files against "
                                   "every oracle")
    p_replay.add_argument("scenarios", nargs="+",
                          help="scenario JSON files or directories")
    p_replay.add_argument("--planted-bug", action="store_true")
    p_replay.add_argument("--checkpoint-dir", default=None,
                          help="checkpoint the whole world (every site "
                               "of it) every --checkpoint-every "
                               "simulated seconds while replaying")
    p_replay.add_argument("--checkpoint-every", type=float, default=900.0,
                          metavar="SECONDS")
    p_replay.add_argument("--from-checkpoint", metavar="CKPT", default=None,
                          help="time-travel: restore the episode at a "
                               "saved epoch and replay only the "
                               "remainder (one scenario file)")

    p_shrink = sub.add_parser("shrink",
                              help="reduce a violating scenario to a "
                                   "minimal reproducer")
    p_shrink.add_argument("scenario", help="scenario JSON file")
    p_shrink.add_argument("--planted-bug", action="store_true")
    p_shrink.add_argument("--out", metavar="FILE", default=None)

    args = parser.parse_args(argv)
    return {"run": _cmd_run, "corpus": _cmd_corpus,
            "replay": _cmd_replay, "shrink": _cmd_shrink}[args.command](args)
