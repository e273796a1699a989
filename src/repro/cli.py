"""Command-line experiment runner.

``repro-exp <row> [options]`` regenerates one of the paper's evaluation
artefacts from the terminal (``repro-exp all`` every one of them); the
rows are :data:`repro.experiments.EXPERIMENTS` and ``repro-exp --help``
lists them, each option with the rows that take it.  A row rejects an
option its ``run`` does not take.  A row's :data:`~repro.experiments.CLAIMS`
that do not hold on the result it prints are named on stderr and exit 1.

``--trace FILE`` writes a Chrome ``trace_event`` JSON (open it in
``chrome://tracing`` or Perfetto) and ``--timeline`` appends the
flat-ASCII per-fault incident timeline.  ``incidents --json FILE`` /
``--markdown FILE`` write the full incident reports as machine- and
human-readable artefacts.

``repro-exp chaos run | corpus | replay | shrink`` is the chaos
toolbox, with a grammar of its own (``repro-exp chaos --help``).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Dict, List, Optional, Set, Tuple

from repro.experiments import CLAIMS, EXPERIMENTS, VARIANTS, resolve

__all__ = ["main"]

#: every ``(row, (run, format))`` the table can run, variants included
_PAIRS = [*EXPERIMENTS.items(),
          *((row, pair) for (row, _), pair in VARIANTS.items())]


def _pair(row: str, options) -> tuple:
    """``(run, format)`` of ``row`` given the options set."""
    for (name, option), pair in VARIANTS.items():
        if name == row and option in options:
            return pair
    return EXPERIMENTS[row]


def _accepts(row: str, pair: tuple) -> Set[str]:
    """The options ``row`` accepts running ``pair``: the keyword
    parameters of its run, and those that switch the row's variant."""
    return ({option for name, option in VARIANTS if name == row}
            | set(inspect.signature(resolve(pair[0])).parameters))


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, str]]:
    """The parser, and each option's flag by its destination."""
    parser = argparse.ArgumentParser(
        prog="repro-exp", argument_default=argparse.SUPPRESS,
        description="Reproduce the evaluation of Corsava & Getov, "
                    "'Improving Quality of Service in Application "
                    "Clusters' (IPDPS 2003).")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                        help="which artefact to regenerate")
    parser.add_argument("--seed", type=int, default=0)
    flags = {}
    for flag, help, kw in (
            ("--replications", "fault-draw replications",
             dict(type=_positive(int))),
            ("--population", "simulated user population",
             dict(type=_positive(int))),
            ("--trace", "write a Chrome trace_event JSON of the run",
             dict(metavar="FILE")),
            ("--timeline", "print the flat-ASCII incident timeline",
             dict(action="store_true")),
            ("--federation", "the per-site federation view after a "
             "site-loss storm", dict(action="store_true")),
            ("--json", "write incident reports + reconciliation as JSON",
             dict(dest="json_out", metavar="FILE")),
            ("--markdown", "write rendered markdown post-mortems",
             dict(metavar="FILE")),
            ("--full-year", "run the live 1000-host site for the whole "
             "simulated year in checkpointed segments instead of the "
             "campaign fast path", dict(action="store_true")),
            ("--hosts", "full-year live site size",
             dict(type=_positive(int))),
            ("--hours", "full-year horizon in simulated hours",
             dict(type=_positive(float))),
            ("--segments", "resumable segments per full-year run",
             dict(type=_positive(int))),
            ("--checkpoint-dir", "where epoch checkpoints land", {}),
            ("--resume", "resume a segmented full-year run from an "
             "epoch checkpoint file", dict(metavar="CKPT"))):
        action = parser.add_argument(flag, help=help, **kw)
        flags[action.dest] = flag
        rows = {row for row, pair in _PAIRS
                if action.dest in _accepts(row, pair)}
        action.help += f" ({', '.join(sorted(rows))})"
    return parser, flags


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "chaos":
        # the chaos toolbox has its own subcommand grammar
        from repro.chaos.cli import main as chaos_main
        return chaos_main(argv[1:])
    parser, flags = _parser()
    options = vars(parser.parse_args(argv))
    row, seed = options.pop("experiment"), options.pop("seed")
    if row == "all" and "trace" in options:
        parser.error("all takes no --trace: each of its rows would "
                     "write the one file")
    rows = sorted(EXPERIMENTS) if row == "all" else [row]
    pairs = {name: _pair(name, options) for name in rows}
    taken = set().union(*(_accepts(name, pair)
                          for name, pair in pairs.items()))
    for option in options:
        if option not in taken:
            parser.error(f"{row} takes no {flags[option]}")
    failed = False
    for name in rows:
        run, fmt = (resolve(ref) for ref in pairs[name])
        params = inspect.signature(run).parameters
        result = run(seed=seed, **{option: value
                                   for option, value in options.items()
                                   if option in params})
        print(fmt(result))
        print()
        # the row's claims, on the result just printed; a variant's none
        for claim in CLAIMS if pairs[name] == EXPERIMENTS[name] else ():
            if claim.row == name and not claim.holds(value := claim.measure(result)):
                print(f"{'finding' if claim.finding else 'claim'} {claim.id} "
                      f"({claim.cite}) does not hold: measured {value}"
                      + (f"; {claim.finding}" if claim.finding else ""),
                      file=sys.stderr)
                failed |= not claim.finding
    return int(failed)


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
