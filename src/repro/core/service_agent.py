"""Application/service intelliagents.

One service agent per application.  "Application health is determined
by attempting to connect to them every Y minutes and run basic
commands" -- the agent's monitor is the application probe (HTTP get,
``select * from``, ...), read through its exit status.  "Their aim is
to ensure that local services run at all times and if not restart
them"; after a repair they "perform the prescribed connectivity tests
again and if there is a problem they cannot resolve they notify human
administrators".

Diagnosis order for a down service mirrors the paper's escalation of
remedies: recognise a configuration error (restore the known build),
recognise corruption (restore from backup), otherwise a plain crash
(restart).  A *hung* service -- processes present, probe dead -- is the
latent error §5 says restarts can clear.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.base import AppState
from repro.core.agent import Intelliagent
from repro.core.parts import Finding
from repro.core.reasoning import CausalRule, RuleEngine
from repro.ontology.slkt import Slkt

__all__ = ["ServiceAgent"]


# causal rule tests: every finding a service agent makes names its app

def _grep_app_errors(host, finding, *phrases: str) -> bool:
    return any(host.syslog.grep(tag=finding.subject, min_severity="err",
                                since=host.sim.now - 7200.0,
                                contains=phrase)
               for phrase in phrases)


def is_misconfigured(host, finding) -> bool:
    # static diagnosis: the error log carries the startup abort
    return _grep_app_errors(host, finding, "configuration",
                            "startup parameters")


def is_corrupt(host, finding) -> bool:
    return _grep_app_errors(host, finding, "corrupt", "corruption")


def is_crashed(host, finding) -> bool:
    app = host.apps.get(finding.subject)
    return app is not None and app.state in (AppState.CRASHED,
                                             AppState.STOPPED)


def is_hung(host, finding) -> bool:
    app = host.apps.get(finding.subject)
    return app is not None and app.state is AppState.HUNG


def is_degraded_procs(host, finding) -> bool:
    app = host.apps.get(finding.subject)
    return app is not None and app.is_running()


def host_overloaded(host, finding) -> bool:
    return host.load_average() > host.spec.max_load


class ServiceAgent(Intelliagent):
    """Looks after exactly one application."""

    category = "service"
    shared_name = False
    engine = RuleEngine((
        # ordered causes for a dead service
        CausalRule("service-down", "misconfiguration",
                   is_misconfigured, ("restore_config",)),
        CausalRule("service-down", "data-corruption",
                   is_corrupt, ("restore_data",)),
        CausalRule("service-down", "process-crash",
                   is_crashed, ("restart_app",)),
        # latent error: restart clears it
        CausalRule("service-hung", "latent-deadlock",
                   is_hung, ("restart_app",)),
        # missing worker daemons: bounce the app
        CausalRule("proc-missing", "partial-failure",
                   is_degraded_procs, ("restart_app",)),
        # slow service on an overloaded host: nothing to kill here,
        # the OS/resource agents own load problems; just report
        CausalRule("service-slow", "host-overload", host_overloaded, ()),
    ))

    def __init__(self, host, app_name: str, *, slkt: Optional[Slkt] = None,
                 **kw):
        self.app_name = app_name
        self.slkt = slkt
        super().__init__(host, f"svc_{app_name}", **kw)

    @property
    def app(self):
        return self.host.apps.get(self.app_name)

    # -- monitoring ------------------------------------------------------------

    def monitor(self) -> List[Finding]:
        app = self.app
        if app is None:
            return [Finding("service-missing", self.app_name,
                            "application not installed")]
        if app.state is AppState.STARTING:
            return []       # let it finish; next wake re-checks
        if app.state is AppState.STOPPED and not app.auto_start:
            # an idle slot (a spare's cold standby) is stopped on
            # purpose; it only comes under watch once something (the
            # relocation orchestrator) starts it
            return []
        ok, ms, err = app.probe()
        if not ok:
            if err == "timeout" and app.processes_present():
                return [Finding("service-hung", self.app_name,
                                f"probe timeout after {ms:.0f} ms with "
                                "processes present")]
            return [Finding("service-down", self.app_name,
                            f"probe failed: {err or app.state.value}")]
        findings: List[Finding] = []
        # SLKT process-count constraint: running but missing daemons
        if self.slkt is not None and self.app_name in self.slkt.apps:
            for dev in self.slkt._check_app(self.host,
                                            self.slkt.apps[self.app_name]):
                if dev.kind == "proc-count":
                    findings.append(Finding("proc-missing", self.app_name,
                                            dev.detail))
        if ms > app.connect_timeout_ms * 0.5:
            findings.append(Finding("service-slow", self.app_name,
                                    f"response {ms:.0f} ms",
                                    severity="warning",
                                    metric=f"{self.app_name}_response_ms",
                                    value=ms))
        return findings
