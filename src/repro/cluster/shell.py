"""Unix shell command layer.

The paper's intelliagents are shell programs: they interact with the
system exclusively by running commands and reading exit codes and ASCII
output ("this is essentially the way intelliagents communicate with
applications -- by trying to use them and read the resulting exit code
in the Unix shell").  This module provides that boundary for the
simulated hosts.

Two commands are built in, ``prtdiag`` and ``ping``; the §3.5
measurement tools (vmstat, iostat, sar, ...) are read straight from the
host by :mod:`repro.metrics.samplers`.  Applications and agents
register their own commands (start/stop/status control scripts, LSF
utilities) via :meth:`Shell.register`.
"""

from __future__ import annotations

import functools
import shlex
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.persist.core import Persistent, rows

__all__ = ["CommandResult", "Shell", "CommandError"]


@dataclass
class CommandResult:
    """Exit code plus captured output, like a subprocess result."""

    exit_code: int
    stdout: List[str] = field(default_factory=list)
    stderr: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    @classmethod
    def failure(cls, code: int, *lines: str) -> "CommandResult":
        return cls(code, [], list(lines))


class CommandError(Exception):
    """Raised when a command cannot run at all (host down)."""


Handler = Callable[[List[str]], CommandResult]


@functools.lru_cache(maxsize=1024)
def _tokenise(cmdline: str) -> tuple:
    """``shlex.split`` once per distinct command line: agents issue the
    same handful wake after wake, and the split is most of what a
    one-word command costs."""
    return tuple(shlex.split(cmdline))


class Shell(Persistent):
    """Per-host command dispatcher."""

    #: history tail only; registered commands are structural (apps and
    #: agents re-register their ctl scripts on rebuild)
    _persist = (rows("history"),)

    #: recent command lines retained per host; a year-scale run issues
    #: millions of agent commands, so the tail is bounded
    HISTORY_LIMIT = 1000

    def __init__(self, host) -> None:
        self.host = host
        self._commands: Dict[str, Handler] = {}
        self.history: List[str] = []
        self._register_builtins()

    # -- dispatch ----------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Install or replace a command."""
        self._commands[name] = handler

    def run(self, cmdline: str) -> CommandResult:
        """Execute a command line on this host.

        Raises :class:`CommandError` when the host is down -- local
        agents cannot run on a dead machine; remote probes must go
        through the network layer instead.
        """
        if not self.host.is_up:
            raise CommandError(f"{self.host.name}: host is down")
        self.history.append(cmdline)
        if len(self.history) > 2 * self.HISTORY_LIMIT:
            # amortised ring-trim (a deque would break tail slicing)
            del self.history[:-self.HISTORY_LIMIT]
        try:
            argv = _tokenise(cmdline)
        except ValueError as exc:
            return CommandResult.failure(2, f"sh: parse error: {exc}")
        if not argv:
            return CommandResult(0)
        handler = self._commands.get(argv[0])
        if handler is None:
            return CommandResult.failure(127, f"sh: {argv[0]}: not found")
        try:
            return handler(list(argv[1:]))
        except Exception as exc:  # commands fail Unix-style, not Python-style
            return CommandResult.failure(1, f"{argv[0]}: {exc}")

    # -- built-in commands ---------------------------------------------------

    def _register_builtins(self) -> None:
        self.register("prtdiag", self._cmd_prtdiag)
        self.register("ping", self._cmd_ping)

    def _cmd_prtdiag(self, args: List[str]) -> CommandResult:
        report = self.host.inventory.status_report()
        bad = {k: v for k, v in report.items() if v != "ok"}
        lines = [f"{name} {state}" for name, state in sorted(report.items())]
        return CommandResult(1 if bad else 0, lines)

    def _cmd_ping(self, args: List[str]) -> CommandResult:
        targets = [a for a in args if not a.startswith("-")]
        if not targets:
            return CommandResult.failure(2, "ping: missing host")
        reachable, rtt_ms = self.host.probe(targets[0])
        if reachable:
            return CommandResult(0, [f"{targets[0]} is alive ({rtt_ms:.1f} ms)"])
        return CommandResult.failure(1, f"no answer from {targets[0]}")
