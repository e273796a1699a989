"""The per-agent adaptive wake-period controller.

One :class:`WakePolicy` instance sits between an intelliagent and its
cron job.  The contract:

- a **clean** run (no findings) multiplies the period by ``backoff``,
  capped at ``max_period`` -- a healthy host converges to quiescence;
- any **finding**, heal or **trigger** (a demand-wake from the local
  TriggerBus or the admin watchdog) snaps the period back to base, so
  an incident is watched at full frequency until it stays clean;
- ``mode="fixed"`` is the paper's rigid grid: the period never moves.
  It exists so the pre-refactor behaviour stays available byte-for-byte
  for A/B benchmarking.

The policy itself never talks to the cron; the agent reads
:attr:`current_period` after notifying it and re-arms its own job.
"""

from __future__ import annotations

from repro.persist.core import Persistent, scalar

__all__ = ["WakePolicy"]

MODES = ("fixed", "adaptive")


class WakePolicy(Persistent):
    """Adaptive wake interval for one agent."""

    __slots__ = ("mode", "base_period", "current_period", "resets", "triggers")
    _persist = (scalar("current_period", float),
                scalar("resets", int))

    #: multiplicative back-off per clean run
    backoff = 2.0
    #: the longest a healthy agent sleeps
    max_period = 1800.0

    def __init__(self, base_period: float, *, mode: str = "adaptive"):
        if mode not in MODES:
            raise ValueError(f"unknown wake policy mode {mode!r}")
        if base_period <= 0:
            raise ValueError(f"base period must be positive: {base_period!r}")
        if self.max_period < base_period:
            raise ValueError(
                f"max period {self.max_period!r} below base {base_period!r}")
        self.mode = mode
        self.base_period = float(base_period)
        self.current_period = float(base_period)
        self.resets = 0

    # -- run outcomes --------------------------------------------------------

    def note_clean(self) -> bool:
        """A run found nothing; back off.  Returns True if the period
        changed."""
        if self.mode == "fixed":
            return False
        new = min(self.max_period, self.current_period * self.backoff)
        if new == self.current_period:
            return False
        self.current_period = new
        return True

    def note_findings(self) -> bool:
        """A run found (or healed) something; watch at full frequency."""
        return self._reset()

    def note_trigger(self) -> bool:
        """A demand-wake arrived (trigger bus or admin watchdog)."""
        return self._reset()

    def _reset(self) -> bool:
        if self.mode == "fixed" or self.current_period == self.base_period:
            return False
        self.current_period = self.base_period
        self.resets += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<WakePolicy {self.mode} {self.current_period:g}s "
                f"[{self.base_period:g}..{self.max_period:g}]>")
