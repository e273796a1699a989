"""repro.chaos -- adversarial evaluation of the healing machinery.

The paper's headline claim (550 h -> 31 h downtime/year) rests on the
healing / relocation / wake pipeline behaving under *arbitrary* fault
timings, not just the handful of hand-written campaigns in
``faults/campaign.py``.  This package is the scenario-diversity
engine:

- :mod:`repro.chaos.scenario` -- a declarative scenario DSL (typed
  events over the structured fault catalog, JSON round-trip so
  scenarios are committable corpus files);
- :mod:`repro.chaos.executor` -- runs one scenario against a live
  world (a federation of one site or of three, a rescan reference on
  every admin pair) and collects every guardrail's state;
- :mod:`repro.chaos.coverage` -- decision-path signatures harvested
  from the admin decision log, relocation records, ledger condition
  kinds and wake/notification behaviour;
- :mod:`repro.chaos.oracles` -- invariant oracles packaging the
  guardrails the repo already trusts, run after every episode;
- :mod:`repro.chaos.fuzzer` -- a generative, coverage-guided scenario
  mutator batch-executed through :mod:`repro.parallel`;
- :mod:`repro.chaos.shrink` -- delta-debugging reduction of violating
  scenarios to minimal committable reproducers.
"""

from repro.chaos.coverage import CoverageMap, signature_of
from repro.chaos.executor import Episode, run_episode
from repro.chaos.fuzzer import FuzzResult, ScenarioFuzzer
from repro.chaos.oracles import ORACLES, OracleVerdict, run_oracles
from repro.chaos.scenario import (BUILDERS, ChaosEvent, Scenario,
                                  build_corpus, random_scenario)
from repro.chaos.shrink import ShrinkResult, shrink, shrink_episode

__all__ = [
    "BUILDERS", "ChaosEvent", "CoverageMap", "Episode", "FuzzResult",
    "ORACLES", "OracleVerdict", "Scenario", "ScenarioFuzzer",
    "ShrinkResult", "build_corpus", "random_scenario", "run_episode",
    "run_oracles", "shrink", "shrink_episode", "signature_of",
]
