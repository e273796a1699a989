"""Delta-debugging shrinker: violating scenario -> minimal reproducer.

Classic ddmin over the event list (drop ever-smaller chunks while the
violation persists), followed by two normalisation passes that make
reproducers pleasant to commit: event times snap down to the coarsest
grid that still violates (multiples of the 300 s wake base), and the
horizon shrinks toward the last event plus a settle window.

The shrinker is **deterministic**: it uses no randomness, walks
chunks in a fixed order, and caches every tested candidate by its
canonical JSON -- re-shrinking the same scenario yields byte-identical
output, which the property tests assert.

``still_violates`` is any predicate ``Scenario -> bool``; the episode
wrapper :func:`shrink_episode` closes one over
:func:`~repro.chaos.executor.run_episode` that preserves *the same*
violated-oracle set, so a shrunk scenario never silently trades one
bug for another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Sequence, Tuple

from repro.chaos.scenario import MIN_HORIZON, Scenario

__all__ = ["ShrinkResult", "shrink", "shrink_episode"]

#: times snap to this grid when it preserves the violation
TIME_GRID = 300.0
#: slack kept after the last event when shrinking the horizon
SETTLE = 3600.0


@dataclass
class ShrinkResult:
    """What the shrinker did and how much work it took."""

    original: Scenario
    shrunk: Scenario
    #: candidate scenarios actually executed (cache misses)
    tested: int
    #: ddmin rounds until a fixpoint
    rounds: int


class _Prober:
    """Memoising wrapper around the caller's predicate."""

    def __init__(self, predicate: Callable[[Scenario], bool]):
        self.predicate = predicate
        self.cache: Dict[str, bool] = {}
        self.tested = 0

    def violates(self, scenario: Scenario) -> bool:
        key = scenario.to_json()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.tested += 1
        out = bool(self.predicate(scenario))
        self.cache[key] = out
        return out


def _with_events(base: Scenario, events: Sequence) -> Scenario:
    return Scenario(name=base.name, events=list(events),
                    horizon=base.horizon, seed=base.seed,
                    notes=base.notes, sites=base.sites).normalized()


def _ddmin_events(base: Scenario, prober: _Prober) -> Tuple[Scenario, int]:
    """Minimise the event list (ddmin with complement testing)."""
    current = base
    rounds = 0
    n = 2
    while len(current.events) >= 2:
        rounds += 1
        chunk = max(1, len(current.events) // n)
        reduced = None
        for start in range(0, len(current.events), chunk):
            rest = (current.events[:start]
                    + current.events[start + chunk:])
            if not rest:
                continue
            candidate = _with_events(current, rest)
            if prober.violates(candidate):
                reduced = candidate
                break
        if reduced is not None:
            current = reduced
            n = max(2, n - 1)
        elif chunk == 1:
            break
        else:
            n = min(len(current.events), n * 2)
    # a single remaining event: try the empty tail anyway (some bugs
    # need no events at all -- worth knowing)
    if len(current.events) == 1:
        candidate = _with_events(current, [])
        if prober.violates(candidate):
            current = candidate
    return current, rounds


def _coarsen_times(base: Scenario, prober: _Prober) -> Scenario:
    """Snap each event's time down to the grid when it still fails."""
    current = base
    for i in range(len(current.events)):
        ev = current.events[i]
        snapped = (ev.time // TIME_GRID) * TIME_GRID
        if snapped == ev.time:
            continue
        events = list(current.events)
        events[i] = replace(ev, time=snapped)
        candidate = _with_events(current, events)
        if prober.violates(candidate):
            current = candidate
    return current


def _shrink_horizon(base: Scenario, prober: _Prober) -> Scenario:
    """Pull the horizon toward last-event + settle, halving the gap."""
    current = base
    floor = MIN_HORIZON
    if current.events:
        floor = max(floor, current.events[-1].time + SETTLE)
    while current.horizon - floor > 1.0:
        target = max(floor, (current.horizon + floor) / 2.0
                     if current.horizon - floor > 2 * SETTLE else floor)
        candidate = Scenario(name=current.name, events=current.events,
                             horizon=target, seed=current.seed,
                             notes=current.notes,
                             sites=current.sites).normalized()
        if prober.violates(candidate):
            current = candidate
        else:
            break
    return current


def shrink(scenario: Scenario,
           still_violates: Callable[[Scenario], bool]) -> ShrinkResult:
    """Reduce ``scenario`` to a minimal program that still violates.

    Raises ``ValueError`` if the input does not violate to begin with
    (shrinking a passing scenario is always caller error).
    """
    scenario = scenario.normalized()
    prober = _Prober(still_violates)
    if not prober.violates(scenario):
        raise ValueError(f"scenario {scenario.name!r} does not violate; "
                         f"nothing to shrink")
    current, rounds = _ddmin_events(scenario, prober)
    current = _coarsen_times(current, prober)
    current = _shrink_horizon(current, prober)
    shrunk = Scenario(name=f"{scenario.name}-min", events=current.events,
                      horizon=current.horizon, seed=current.seed,
                      sites=current.sites,
                      notes=(f"shrunk from {scenario.scenario_id} "
                             f"({len(scenario.events)} -> "
                             f"{len(current.events)} events)")).normalized()
    return ShrinkResult(original=scenario, shrunk=shrunk,
                        tested=prober.tested, rounds=rounds)


def shrink_episode(scenario: Scenario, violated: Sequence[str], *,
                   planted_bug: bool = False) -> ShrinkResult:
    """Shrink against the real executor, preserving the violated set.

    ``violated`` is the oracle-name set the original episode tripped;
    a candidate counts as violating only if it trips *all* of them --
    the reproducer demonstrates the same defect, not merely some
    defect.
    """
    from repro.chaos.executor import run_episode

    target = frozenset(violated)
    if not target:
        raise ValueError("no violated oracles given")

    def predicate(candidate: Scenario) -> bool:
        ep = run_episode(candidate, planted_bug=planted_bug,
                         oracle_names=sorted(target))
        return target <= set(ep.violated)

    return shrink(scenario, predicate)
