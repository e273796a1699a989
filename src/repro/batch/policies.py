"""Job placement policies.

§4 explains why mid-job database crashes happened: the submitting user
"a) did not select a powerful enough server, or b) selected a server
that was already overloaded, or c) the server became overloaded later
from scheduled job submission".  The administration servers replaced
manual placement with a DGSPL-informed shortlist, "with the best choice
always first", preferring "a server of equal or higher in power than
the server that failed".

Three policies reproduce that comparison (the A-resub ablation):

- :class:`ManualPolicy` -- habit-driven user choice, blind to load.
- :class:`RandomPolicy` -- uniform choice among running servers.
- :class:`DgsplPolicy` -- load- and power-aware shortlist, best first.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.database import Database
    from repro.batch.jobs import BatchJob

__all__ = ["PlacementPolicy", "ManualPolicy", "RandomPolicy", "DgsplPolicy",
           "rank_candidates"]


class PlacementPolicy(Protocol):
    """Picks a database server for a job; None when nothing fits."""

    name: str

    def choose(self, job: "BatchJob",
               candidates: Sequence["Database"]) -> Optional["Database"]:
        ...


def _running(candidates: Sequence["Database"]) -> List["Database"]:
    return [db for db in candidates if db.is_healthy()]


class ManualPolicy:
    """Mimics manual user selection.

    Users had habits: each user hashes to a small set of 'favourite'
    servers and submits there regardless of current load -- exactly the
    failure modes (a) and (b) above.
    """

    name = "manual"

    def __init__(self, rng, favourites_per_user: int = 3):
        self.rng = rng
        self.favourites_per_user = favourites_per_user

    def choose(self, job: "BatchJob",
               candidates: Sequence["Database"]) -> Optional["Database"]:
        running = _running(candidates)
        if not running:
            return None
        if job.requested_server:
            for db in running:
                if db.host.name == job.requested_server:
                    return db
            return None     # the chosen server is down: user is stuck
        # habit: stable per-user favourite subset, then a random favourite
        from repro.sim.rand import stable_hash
        idx = sorted(range(len(candidates)),
                     key=lambda i: stable_hash(job.user,
                                               candidates[i].host.name))
        favs = [candidates[i] for i in idx[: self.favourites_per_user]]
        favs = [db for db in favs if db.is_healthy()]
        if not favs:
            return None
        return favs[int(self.rng.integers(len(favs)))]


class RandomPolicy:
    """Uniform over running servers -- §4's 'choosing randomly a server
    ... although not ideal' strawman."""

    name = "random"

    def __init__(self, rng):
        self.rng = rng

    def choose(self, job: "BatchJob",
               candidates: Sequence["Database"]) -> Optional["Database"]:
        running = _running(candidates)
        if not running:
            return None
        return running[int(self.rng.integers(len(running)))]


def rank_candidates(candidates: Sequence["Database"], *,
                    min_power: float = 0.0,
                    exclude_hosts: Sequence[str] = ()) -> List["Database"]:
    """Shared ranking core: running servers with free slots, power at
    least ``min_power``, not in ``exclude_hosts``, ordered best-first by
    (headroom desc, power desc).  Used by both :class:`DgsplPolicy` and
    the administration servers' ontology-driven job manager."""
    ranked: List[tuple] = []
    for db in candidates:
        if not db.is_healthy():
            continue
        if db.host.name in exclude_hosts:
            continue
        power = db.host.spec.power
        if power < min_power:
            continue
        if db.job_count() >= db.max_job_slots:
            continue
        headroom = 1.0 - db.overload_factor()
        ranked.append((headroom, power, db))
    ranked.sort(key=lambda t: (-t[0], -t[1], t[2].host.name))
    return [db for _, _, db in ranked]


class DgsplPolicy:
    """Load- and power-aware placement, best choice first.

    On a fresh submission it simply takes the head of the ranked
    shortlist.  On a resubmission after a failure it applies the SLKT
    rule: require power >= the failed server's and avoid servers the
    job already failed on (relaxing both if nothing qualifies, since
    the paper prefers a degraded placement over no placement).
    """

    name = "dgspl"

    def choose(self, job: "BatchJob",
               candidates: Sequence["Database"]) -> Optional["Database"]:
        min_power = 0.0
        if job.failed_on:
            # power of the most recent server the job died on
            failed_host = job.failed_on[-1]
            for db in candidates:
                if db.host.name == failed_host:
                    min_power = db.host.spec.power
                    break
        shortlist = rank_candidates(candidates, min_power=min_power,
                                    exclude_hosts=job.failed_on)
        if not shortlist and min_power > 0.0:
            shortlist = rank_candidates(candidates,
                                        exclude_hosts=job.failed_on)
        if not shortlist and job.failed_on:
            shortlist = rank_candidates(candidates)
        return shortlist[0] if shortlist else None
