"""Coverage-guided scenario fuzzer.

The loop is the classic greybox shape -- corpus, mutate, execute,
admit -- with the coverage map built from decision-path markers the
substrate already records (see :mod:`repro.chaos.coverage`):

1. seed the corpus (the committed builders by default);
2. pick parents, favouring recent additions (they hold the markers the
   map just learned about) and occasionally splicing two parents;
3. mutate: perturb event times (snapping toward wake-backoff
   boundaries, where the adaptive policy is softest), retarget to a
   sibling pool member, duplicate, drop, or insert an event --
   insertion prefers fault kinds the coverage map has never seen;
4. execute a batch through :func:`repro.parallel.replicate_outcomes`
   (workers return picklable :meth:`Episode.summary` dicts and never
   take the pool down);
5. admit any child whose signature adds unseen markers; collect any
   episode that tripped an oracle.

Everything draws from one named stream of the repo's
:class:`~repro.sim.rand.RandomStreams`, and batches are generated
*before* execution, so a fuzz run is fully determined by
``(seed, corpus, episodes, batch)`` -- the determinism test replays a
whole campaign twice and compares violation sets and coverage maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.coverage import CoverageMap
from repro.chaos.scenario import (MAX_EVENTS, OPS, POOLS_FOR_KIND,
                                  WAKE_BASE, ChaosEvent, Scenario,
                                  build_corpus, make_target, parse_target,
                                  random_event, random_scenario)
from repro.parallel import replicate_outcomes
from repro.sim.rand import RandomStreams

__all__ = ["FuzzResult", "ScenarioFuzzer"]

#: fault kinds insertable by mutation (host power/repair ops excluded:
#: unpaired repairs mostly fizzle and teach the map nothing)
_INSERTABLE = tuple(sorted(k for k, kind in OPS.items()
                           if k not in ("host-boot", "lan-repair",
                                        "nic-repair", "dns-repair")))


def _run_packed(scenario_jsons: Sequence[str], planted_bug: bool,
                index: int) -> dict:
    """Pool worker: run the index-th scenario of a packed batch.

    Module-level (and driven through ``functools.partial``) so it
    pickles into worker processes; returns the picklable summary, not
    the episode (which holds the whole live site).
    """
    from repro.chaos.executor import run_episode

    scenario = Scenario.from_json(scenario_jsons[index])
    ep = run_episode(scenario, planted_bug=planted_bug)
    return ep.summary()


@dataclass
class FuzzResult:
    """One fuzzing campaign's outcome."""

    seed: int
    episodes: int
    coverage: CoverageMap
    #: Episode.summary() dicts of every oracle-violating episode
    violations: List[dict] = field(default_factory=list)
    #: summaries of worker crashes (fuzzer bugs, not system bugs)
    errors: List[str] = field(default_factory=list)
    #: final corpus (seeds + admitted children)
    corpus: List[Scenario] = field(default_factory=list)
    #: scenario ids admitted for novelty, in admission order
    admitted: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "coverage_markers": len(self.coverage),
            "coverage_growth": list(self.coverage.growth),
            "violations": self.violations,
            "errors": self.errors,
            "corpus_size": len(self.corpus),
            "admitted": list(self.admitted),
        }


class ScenarioFuzzer:
    """Mutate-execute-admit loop over chaos scenarios.

    ``episodes`` bounds total executions (corpus seeds included);
    ``max_violations`` stops the campaign early once enough distinct
    failures are in hand (shrinking them is the expensive part).
    """

    def __init__(self, seed: int = 0, *,
                 corpus: Optional[Sequence[Scenario]] = None,
                 episodes: int = 60, batch: int = 8,
                 planted_bug: bool = False,
                 max_violations: int = 5,
                 processes: Optional[int] = None):
        self.seed = int(seed)
        self.rng = RandomStreams(self.seed).get("chaos.fuzzer")
        if corpus is None:
            corpus = list(build_corpus(self.seed).values())
        # the mutation operators only know single-site selectors (no
        # ``site:`` scopes, no ``wan[i]`` pairs); federated scenarios run
        # through the same executor but are not mutated yet
        self.corpus: List[Scenario] = [s.normalized() for s in corpus
                                       if s.sites == 1]
        if not self.corpus:
            self.corpus = [random_scenario(self.rng, f"gen{i:03d}",
                                           seed=self.seed)
                           for i in range(4)]
        self.episodes = int(episodes)
        self.batch = max(1, int(batch))
        self.planted_bug = bool(planted_bug)
        self.max_violations = int(max_violations)
        self.processes = processes
        self._children = 0

    # -- mutations -----------------------------------------------------------

    def _mut_perturb_time(self, sc: Scenario) -> Scenario:
        """Shift one event's time; half the time snap it onto a
        wake-base boundary (the adversarial-timing lever)."""
        i = int(self.rng.integers(len(sc.events)))
        ev = sc.events[i]
        if self.rng.random() < 0.5:
            k = int(self.rng.integers(1, int(sc.horizon / WAKE_BASE)))
            t = k * WAKE_BASE + float(self.rng.uniform(-60.0, 60.0))
        else:
            t = ev.time + float(self.rng.normal(0.0, 900.0))
        events = list(sc.events)
        events[i] = ChaosEvent(max(0.0, min(t, sc.horizon - 1.0)),
                               ev.op, ev.target, ev.params)
        return self._child(sc, events)

    def _mut_retarget(self, sc: Scenario) -> Scenario:
        """Point one event at a sibling: new index, or a different
        pool satisfying the same target kind."""
        i = int(self.rng.integers(len(sc.events)))
        ev = sc.events[i]
        pool, idx = parse_target(ev.target)
        pools = POOLS_FOR_KIND[OPS[ev.op]]
        if len(pools) > 1 and self.rng.random() < 0.5:
            pool = pools[int(self.rng.integers(len(pools)))]
        else:
            idx = int(self.rng.integers(4))
        events = list(sc.events)
        events[i] = ChaosEvent(ev.time, ev.op, make_target(pool, idx),
                               ev.params)
        return self._child(sc, events)

    def _mut_duplicate(self, sc: Scenario) -> Scenario:
        """Replay one event later -- repeated faults against the same
        target exercise the overlap/fizzle and flap paths."""
        i = int(self.rng.integers(len(sc.events)))
        ev = sc.events[i]
        t = ev.time + float(self.rng.uniform(WAKE_BASE, 4 * WAKE_BASE))
        events = list(sc.events)
        events.append(ChaosEvent(min(t, sc.horizon - 1.0), ev.op,
                                 ev.target, ev.params))
        return self._child(sc, events)

    def _mut_drop(self, sc: Scenario) -> Scenario:
        i = int(self.rng.integers(len(sc.events)))
        events = [e for j, e in enumerate(sc.events) if j != i]
        return self._child(sc, events)

    def _mut_insert(self, sc: Scenario) -> Scenario:
        """Add one event, preferring fault kinds the map never hit."""
        unseen = [k for k in _INSERTABLE
                  if f"fault:{k}" not in self.coverage]
        if unseen and self.rng.random() < 0.75:
            op = unseen[int(self.rng.integers(len(unseen)))]
            pools = POOLS_FOR_KIND[OPS[op]]
            pool = pools[int(self.rng.integers(len(pools)))]
            k = int(self.rng.integers(1, int(sc.horizon / WAKE_BASE)))
            t = min(sc.horizon - 1.0,
                    k * WAKE_BASE + float(self.rng.uniform(-60.0, 60.0)))
            ev = ChaosEvent(max(0.0, t), op,
                            make_target(pool, int(self.rng.integers(4))))
        else:
            ev = random_event(self.rng, sc.horizon)
        return self._child(sc, list(sc.events) + [ev])

    def _mut_splice(self, sc: Scenario) -> Scenario:
        """Cross-over: this parent's early events + another corpus
        member's late events."""
        other = self.corpus[int(self.rng.integers(len(self.corpus)))]
        cut = float(self.rng.uniform(0.0, max(sc.horizon, other.horizon)))
        events = ([e for e in sc.events if e.time <= cut]
                  + [e for e in other.events if e.time > cut])
        if not events:
            events = list(sc.events)
        return self._child(sc, events,
                           horizon=max(sc.horizon, other.horizon))

    def _child(self, parent: Scenario, events, *,
               horizon: Optional[float] = None) -> Scenario:
        self._children += 1
        return Scenario(
            name=f"fz{self._children:05d}", events=list(events),
            horizon=parent.horizon if horizon is None else horizon,
            seed=parent.seed, sites=parent.sites,
            notes=f"mutant of {parent.name}").normalized()

    def mutate(self, parent: Scenario) -> Scenario:
        """One mutation step (stacked 1-2 deep)."""
        muts = [self._mut_perturb_time, self._mut_retarget,
                self._mut_duplicate, self._mut_drop, self._mut_insert,
                self._mut_splice]
        child = parent
        for _ in range(1 + int(self.rng.integers(2))):
            if not child.events:
                child = self._mut_insert(child)
                continue
            fn = muts[int(self.rng.integers(len(muts)))]
            child = fn(child)
        if not child.events:
            child = self._mut_insert(child)
        return child

    def _pick_parent(self) -> Scenario:
        """Recent admissions half the time (they carry the newest
        markers), uniform otherwise."""
        n = len(self.corpus)
        if n > 4 and self.rng.random() < 0.5:
            lo = max(0, n - max(4, n // 4))
            return self.corpus[lo + int(self.rng.integers(n - lo))]
        return self.corpus[int(self.rng.integers(n))]

    # -- the campaign --------------------------------------------------------

    def run(self) -> FuzzResult:
        self.coverage = CoverageMap()
        result = FuzzResult(seed=self.seed, episodes=0,
                            coverage=self.coverage,
                            corpus=self.corpus)
        seen_violations: set = set()
        queue: List[Scenario] = list(self.corpus)

        while result.episodes < self.episodes and \
                len(result.violations) < self.max_violations:
            # fill the batch: drain seed queue first, then mutate
            room = min(self.batch, self.episodes - result.episodes)
            batch: List[Scenario] = []
            while queue and len(batch) < room:
                batch.append(queue.pop(0))
            while len(batch) < room:
                batch.append(self.mutate(self._pick_parent()))

            jsons = [sc.to_json() for sc in batch]
            worker = partial(_run_packed, jsons, self.planted_bug)
            outcomes = replicate_outcomes(worker, range(len(batch)),
                                          processes=self.processes)

            for outcome in outcomes:
                result.episodes += 1
                if not outcome.ok:
                    result.errors.append(
                        f"episode {outcome.seed}: {outcome.error}")
                    continue
                summary = outcome.value
                new = self.coverage.add(summary["coverage"])
                if summary["violated"]:
                    key = (summary["scenario_id"],
                           tuple(summary["violated"]))
                    if key not in seen_violations:
                        seen_violations.add(key)
                        result.violations.append(summary)
                elif new > 0:
                    # novel and clean -> worth mutating further
                    sc = Scenario.from_json(summary["scenario_json"])
                    self.corpus.append(sc)
                    result.admitted.append(summary["scenario_id"])
        return result
