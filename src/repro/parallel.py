"""Process-pool Monte-Carlo helpers.

Replications of the fault campaign are embarrassingly parallel; per the
hpc-parallel guides the fan-out uses ``ProcessPoolExecutor`` with one
task per seed (each task is seconds of work, so per-task overhead is
negligible) and falls back to in-process execution when the pool is
unavailable (sandboxes, restricted environments) or for tiny batches.

A replication that *raises* is a finding, not an infrastructure
failure: the exception is re-raised as :class:`ReplicationError`
carrying the offending seed, identically on the pool and serial paths,
so a campaign crash is reproducible with ``fn(err.seed)``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: smallest batch worth a process pool
MIN_PARALLEL = 4

__all__ = ["ReplicationError", "SeedOutcome", "replicate",
           "replicate_outcomes", "default_workers"]


class ReplicationError(Exception):
    """One replication raised; ``seed`` reproduces it deterministically."""

    def __init__(self, seed: int, cause: BaseException):
        super().__init__(f"replication failed for seed {seed}: {cause!r}")
        self.seed = seed
        self.cause = cause


def default_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, cpus - 1)


def _fan_out(worker: Callable[[int], T], seeds: Sequence[int],
             processes: Optional[int], min_parallel: int,
             lost: Callable[[int, Exception], T]) -> List[T]:
    """``worker(seed)`` for every seed, results in seed order: on a
    process pool when the batch and the machine make that pay, else
    (or if the pool cannot spawn) in this process.  ``lost(seed, exc)``
    answers for a call that raised: the seed's result, or it raises."""
    seeds = list(seeds)
    workers = processes if processes is not None else default_workers()

    def gather(results):
        out = []
        for seed, result in zip(seeds, results):
            try:
                out.append(result())
            except Exception as exc:
                out.append(lost(seed, exc))
        return out

    if len(seeds) >= min_parallel and workers > 1:
        try:
            with ProcessPoolExecutor(min(workers, len(seeds))) as ex:
                return gather([ex.submit(worker, s).result for s in seeds])
        except (OSError, PermissionError, RuntimeError):
            # restricted environment: do the work here instead
            # (ReplicationError deliberately escapes this net)
            pass
    return gather(partial(worker, s) for s in seeds)


def _failed(seed: int, exc: Exception):
    if isinstance(exc, BrokenProcessPool):
        # pool infrastructure died, not fn: serial fallback
        raise exc
    raise ReplicationError(seed, exc) from exc


def replicate(fn: Callable[[int], T], seeds: Sequence[int], *,
              min_parallel: int = MIN_PARALLEL) -> List[T]:
    """Run ``fn(seed)`` for every seed, in parallel when it pays.

    ``fn`` must be a module-level (picklable) callable.  Results come
    back in seed order.  Falls back to serial execution for small
    batches or when worker processes cannot be spawned.  A failing
    replication raises :class:`ReplicationError` with the seed, on
    either path.
    """
    return _fan_out(fn, seeds, None, min_parallel, _failed)


@dataclass
class SeedOutcome(Generic[T]):
    """One replication's structured result.

    Unlike :func:`replicate` -- which raises on the first failing seed
    and returns bare values -- an outcome always comes back, carrying
    either the worker's ``value`` or the ``error`` that killed it.
    Consumers like the chaos fuzzer loop read worker output (scenario
    id, oracle verdicts, coverage signature) directly from ``value``
    without re-running the seed, and a crashed worker is itself a
    finding rather than a batch abort.
    """

    seed: int
    ok: bool
    value: Optional[T] = None
    error: str = ""


def _outcome_call(fn: Callable[[int], T], seed: int) -> SeedOutcome:
    try:
        return SeedOutcome(seed, True, fn(seed))
    except Exception as exc:
        return SeedOutcome(seed, False, error=repr(exc))


def replicate_outcomes(fn: Callable[[int], T], seeds: Sequence[int], *,
                       processes: Optional[int] = None) -> List[SeedOutcome]:
    """Run ``fn(seed)`` for every seed, returning per-seed
    :class:`SeedOutcome` records in seed order.

    Never raises for a failing ``fn``: the failure is captured in the
    outcome so the other seeds still complete and the caller decides
    what a partial batch means.  Same parallel/serial fallback rules
    as :func:`replicate`; ``fn`` must be module-level picklable for
    the pool path (``functools.partial`` of one is fine).
    """
    # a pool-level failure for one seed (e.g. the value would not
    # pickle) is still a structured outcome
    return _fan_out(
        partial(_outcome_call, fn), seeds, processes, MIN_PARALLEL,
        lambda seed, exc: SeedOutcome(seed, False, error=repr(exc)))
