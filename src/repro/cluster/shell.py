"""Unix shell command layer.

The paper's intelliagents are shell programs: they interact with the
system exclusively by running commands and reading exit codes and ASCII
output ("this is essentially the way intelliagents communicate with
applications -- by trying to use them and read the resulting exit code
in the Unix shell").  This module provides that boundary for the
simulated hosts.

Built-in commands mirror the tools §3.5 lists (vmstat, iostat, sar,
netstat, nfsstat, top/ps, df, uptime, prtdiag, ping).  Applications and
agents can register additional commands (start/stop/status control
scripts, LSF utilities) via :meth:`Shell.register`.
"""

from __future__ import annotations

import functools
import shlex
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.persist.core import Persistent, rows, scalar

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

    def text(self) -> str:
        return "\n".join(self.stdout)

    @classmethod
    def success(cls, *lines: str) -> "CommandResult":
        return cls(0, list(lines))

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
    _persist = (rows("history"), scalar("history_trimmed", int))

    #: recent command lines retained per host; a year-scale run issues
    #: millions of agent commands, so the tail is bounded
    HISTORY_LIMIT = 1000

    def __init__(self, host) -> None:
        self.host = host
        self._commands: Dict[str, Handler] = {}
        self.history: List[str] = []
        self.history_trimmed = 0
        self._register_builtins()

    # -- dispatch ----------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Install or replace a command."""
        self._commands[name] = handler

    def unregister(self, name: str) -> None:
        self._commands.pop(name, None)

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
            self.history_trimmed += len(self.history) - self.HISTORY_LIMIT
            del self.history[:-self.HISTORY_LIMIT]
        try:
            argv = _tokenise(cmdline)
        except ValueError as exc:
            return CommandResult.failure(2, f"sh: parse error: {exc}")
        if not argv:
            return CommandResult.success()
        handler = self._commands.get(argv[0])
        if handler is None:
            return CommandResult.failure(127, f"sh: {argv[0]}: not found")
        try:
            return handler(list(argv[1:]))
        except Exception as exc:  # commands fail Unix-style, not Python-style
            return CommandResult.failure(1, f"{argv[0]}: {exc}")

    # -- built-in commands ---------------------------------------------------

    def _register_builtins(self) -> None:
        self.register("ps", self._cmd_ps)
        self.register("pgrep", self._cmd_pgrep)
        self.register("pkill", self._cmd_pkill)
        self.register("vmstat", self._cmd_vmstat)
        self.register("iostat", self._cmd_iostat)
        self.register("sar", self._cmd_sar)
        self.register("netstat", self._cmd_netstat)
        self.register("nfsstat", self._cmd_nfsstat)
        self.register("uptime", self._cmd_uptime)
        self.register("df", self._cmd_df)
        self.register("prtdiag", self._cmd_prtdiag)
        self.register("ping", self._cmd_ping)
        self.register("uname", self._cmd_uname)
        self.register("who", self._cmd_who)

    def _cmd_ps(self, args: List[str]) -> CommandResult:
        host = self.host
        lines = ["  PID USER     %CPU  MEM_MB ST COMMAND"]
        procs = sorted(host.ptable, key=lambda p: p.pid)
        if "-u" in args:
            idx = args.index("-u")
            user = args[idx + 1] if idx + 1 < len(args) else ""
            procs = [p for p in procs if p.user == user]
        for p in procs:
            lines.append(f"{p.pid:5d} {p.user:<8s} {p.cpu_pct:5.1f} "
                         f"{p.mem_mb:7.1f} {p.state.value:>2s} {p.cmdline}")
        return CommandResult(0, lines)

    def _cmd_pgrep(self, args: List[str]) -> CommandResult:
        names = [a for a in args if not a.startswith("-")]
        if not names:
            return CommandResult.failure(2, "pgrep: missing pattern")
        procs = self.host.ptable.by_command(names[0])
        if not procs:
            return CommandResult(1, [])
        return CommandResult(0, [str(p.pid) for p in procs])

    def _cmd_pkill(self, args: List[str]) -> CommandResult:
        names = [a for a in args if not a.startswith("-")]
        if not names:
            return CommandResult.failure(2, "pkill: missing pattern")
        n = self.host.ptable.kill_command(names[0])
        return CommandResult(0 if n else 1, [])

    def _cmd_vmstat(self, args: List[str]) -> CommandResult:
        """One-line vmstat: r b w  free sr po fault  id%"""
        host = self.host
        m = host.os_metrics()
        lines = [
            " r  b  w    free    sr    po  fault   id",
            (f"{m['run_queue']:2d} {m['blocked']:2d}  0 "
             f"{m['free_mb'] * 1024:7.0f} {m['scan_rate']:5.0f} "
             f"{m['page_out']:5.0f} {m['page_faults']:6.0f} "
             f"{m['cpu_idle']:4.0f}"),
        ]
        return CommandResult(0, lines)

    def _cmd_iostat(self, args: List[str]) -> CommandResult:
        host = self.host
        lines = ["device     %b  asvc_t  wsvc_t"]
        for d in host.disk_metrics():
            lines.append(f"{d['device']:<9s} {d['busy_pct']:4.0f} "
                         f"{d['asvc_t']:7.1f} {d['wsvc_t']:7.1f}")
        return CommandResult(0, lines)

    def _cmd_sar(self, args: List[str]) -> CommandResult:
        m = self.host.os_metrics()
        lines = ["%usr %sys %wio %idle",
                 (f"{m['cpu_user']:4.0f} {m['cpu_sys']:4.0f} "
                  f"{m['cpu_wio']:4.0f} {m['cpu_idle']:5.0f}")]
        return CommandResult(0, lines)

    def _cmd_netstat(self, args: List[str]) -> CommandResult:
        host = self.host
        lines = ["iface      ipkts  opkts  ierrs oerrs  colls"]
        for nic in host.nics.values():
            lines.append(f"{nic.ifname:<9s} {nic.packets_in:6d} "
                         f"{nic.packets_out:6d} {nic.errors_in:6d} "
                         f"{nic.errors_out:5d} {nic.collisions:6d}")
        return CommandResult(0, lines)

    def _cmd_nfsstat(self, args: List[str]) -> CommandResult:
        host = self.host
        calls = getattr(host, "nfs_calls", 0)
        retrans = getattr(host, "nfs_retrans", 0)
        return CommandResult(0, ["calls   retrans",
                                 f"{calls:6d} {retrans:8d}"])

    def _cmd_uptime(self, args: List[str]) -> CommandResult:
        host = self.host
        up_for = host.sim.now - host.booted_at
        load = host.load_average()
        return CommandResult(0, [
            f"up {up_for / 3600.0:.1f}h, load average: "
            f"{load:.2f}, {load:.2f}, {load:.2f}"])

    def _cmd_df(self, args: List[str]) -> CommandResult:
        lines = ["Filesystem       capacity  used%"]
        for m in self.host.fs.df():
            state = "" if m.online else "  (offline)"
            lines.append(f"{m.point:<16s} {m.capacity_bytes:9d} "
                         f"{m.pct_used:5.1f}{state}")
        return CommandResult(0, lines)

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

    def _cmd_uname(self, args: List[str]) -> CommandResult:
        host = self.host
        return CommandResult(0, [f"{host.spec.os} {host.name} "
                                 f"{host.spec.model}"])

    def _cmd_who(self, args: List[str]) -> CommandResult:
        users = sorted({p.user for p in self.host.ptable
                        if p.user not in ("root", "daemon")})
        return CommandResult(0, users)
