"""The self-healing action library.

Actions are the repair vocabulary causal rules refer to by name.  Each
action executes against the live simulated host ("wherever possible
automatically correct run-time operational faults with as little
downtime as possible") and returns how long the repair occupies the
agent -- during which the same-type lockout keeps a second instance
from starting.

Service recovery time is *not* instantaneous even when the action is:
restarting a database sets it STARTING and the sim delivers RUNNING
after its startup sequence, so measured downtime includes real restart
cost, exactly like the paper's restart-based recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = ["ActionResult", "ACTIONS", "apply_action"]


@dataclass(frozen=True)
class ActionResult:
    """Outcome of one healing action."""

    action: str
    success: bool            # the action itself executed
    busy_for: float          # seconds the agent stays busy
    detail: str = ""


# -- service actions ------------------------------------------------------------


def restart_app(host, subject: str) -> ActionResult:
    """Stop-and-start through the control script (the paper assumes
    startup/shutdown scripts exist for every application)."""
    app = host.apps.get(subject)
    if app is None:
        return ActionResult("restart_app", False, 0.0,
                            f"no app {subject!r}")
    res = host.shell.run(f"{app.name}_ctl restart")
    busy = app.shutdown_duration + app.startup_duration() + 30.0
    return ActionResult("restart_app", res.ok, busy,
                        f"restarted {app.name}")


def start_app(host, subject: str) -> ActionResult:
    app = host.apps.get(subject)
    if app is None:
        return ActionResult("start_app", False, 0.0, f"no app {subject!r}")
    res = host.shell.run(f"{app.name}_ctl start")
    return ActionResult("start_app", res.ok,
                        app.startup_duration() + 30.0,
                        f"started {app.name}")


def restore_config(host, subject: str) -> ActionResult:
    """Revert configuration to the SLKT's known-good build ("undoing
    old configurations") and restart."""
    app = host.apps.get(subject)
    if app is None:
        return ActionResult("restore_config", False, 0.0,
                            f"no app {subject!r}")
    app.config_ok = True
    host.syslog.info(host.sim.now, "intelliagent",
                     f"restored known-good config for {app.name}")
    res = host.shell.run(f"{app.name}_ctl restart")
    busy = 120.0 + app.shutdown_duration + app.startup_duration()
    return ActionResult("restore_config", res.ok, busy,
                        f"config restored for {app.name}")


def restore_data(host, subject: str) -> ActionResult:
    """Restore from the last backup, then start.  Slow but effective
    against corruption ("restoring old backups and overwriting current
    assumed 'invalid' settings")."""
    app = host.apps.get(subject)
    if app is None:
        return ActionResult("restore_data", False, 0.0,
                            f"no app {subject!r}")
    restore_time = 900.0        # pulling the backup back is the cost
    app.stop()
    app.data_ok = True

    def _start_later():
        if host.is_up:
            app.start()

    host.sim.schedule(restore_time, _start_later)
    return ActionResult("restore_data", True,
                        restore_time + app.startup_duration() + 60.0,
                        f"restore-from-backup for {app.name}")


# -- resource actions ----------------------------------------------------------------


def kill_runaway(host, subject: str) -> ActionResult:
    """Kill user processes monopolising a CPU."""
    victims = [p for p in host.ptable
               if p.cpu_pct > 90.0 and p.user not in ("root", "daemon")]
    for v in victims:
        host.ptable.kill(v.pid)
    ok = bool(victims)
    return ActionResult("kill_runaway", ok, 30.0,
                        f"killed {len(victims)} runaway process(es)")


def kill_leaky(host, subject: str) -> ActionResult:
    """Kill the process bloating memory (pager thrash remedy)."""
    ram = host.effective_ram_mb()
    victims = [p for p in host.ptable
               if p.mem_mb > 0.3 * ram and p.user not in ("root",)]
    for v in victims:
        host.ptable.kill(v.pid)
    ok = bool(victims)
    return ActionResult("kill_leaky", ok, 30.0,
                        f"killed {len(victims)} leaking process(es)")


def clean_logs(host, subject: str) -> ActionResult:
    """Prune old performance/agent logs to free the /logs filesystem."""
    mount = host.fs.mounts.get("/logs")
    if mount is None:
        return ActionResult("clean_logs", False, 0.0, "no /logs mount")
    before = mount.pct_used
    removed = 0
    for path in host.fs.glob_files("/logs/perf"):
        f = host.fs.stat(path)
        if len(f.lines) > 100:
            host.fs.write(path, f.lines[-100:], now=host.sim.now)
            removed += 1
    # emergency space recovery for bulk (non-file-tracked) usage
    if mount.pct_used > 80.0:
        mount.used_bytes = int(mount.capacity_bytes * 0.6)
    return ActionResult(
        "clean_logs", mount.pct_used < before or mount.pct_used < 80.0,
        60.0, f"pruned {removed} logs, {before:.0f}%→{mount.pct_used:.0f}%")


# -- infrastructure actions -----------------------------------------------------------


def restart_cron(host, subject: str) -> ActionResult:
    host.crond.restart()
    if not host.ptable.alive("crond"):
        host.ptable.spawn("root", "crond", cpu_pct=0.01, mem_mb=2.0,
                          now=host.sim.now)
    return ActionResult("restart_cron", True, 15.0, "crond restarted")


def request_field_engineer(host, subject: str) -> ActionResult:
    """Not a repair: hardware needs hands.  Returns success=False so
    the agent escalates to humans."""
    return ActionResult("request_field_engineer", False, 0.0,
                        f"field engineer required for {subject}")


ACTIONS: Dict[str, Callable[[object, str], ActionResult]] = {
    "restart_app": restart_app,
    "start_app": start_app,
    "restore_config": restore_config,
    "restore_data": restore_data,
    "kill_runaway": kill_runaway,
    "kill_leaky": kill_leaky,
    "clean_logs": clean_logs,
    "restart_cron": restart_cron,
    "request_field_engineer": request_field_engineer,
}


def apply_action(name: str, host, subject: str) -> ActionResult:
    fn = ACTIONS.get(name)
    if fn is None:
        return ActionResult(name, False, 0.0, f"unknown action {name!r}")
    tracer = host.sim.tracer
    with tracer.span(f"heal.{name}", subject=subject, host=host.name,
                     fault_id=tracer.fault_id_for(subject)) as span:
        result = fn(host, subject)
        span.set_attr("outcome", "ok" if result.success else "failed")
        span.set_attr("busy_for", result.busy_for)
    return result
