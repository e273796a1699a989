"""Front-end financial application model.

The site ran "60 front-end application IBM SP2 servers for user
front-end financial applications" -- the GUIs analysts used for
data-mining, projections and market simulations.  §3.6 measures: time
to connect, time for a query to come back, per-process CPU/memory, and
the number of application connections.

A front-end typically depends on a database (its queries fan out to
one), which is how front-ends join the distributed-service DAG.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.apps.base import Application, AppState, ProcessSpec, StartupStep
from repro.persist.core import scalars

__all__ = ["FrontendApp"]


class FrontendApp(Application):
    """An analyst-facing GUI application server."""

    app_type = "frontend"
    _persist_extra = scalars(int, "queries_served", "sessions")

    def __init__(self, host, name: str, *,
                 backend: Optional[object] = None, **kw):
        procs = [
            ProcessSpec(f"{name}_gui", 2, cpu_pct=2.0, mem_mb=64.0),
            ProcessSpec(f"{name}_broker", 1, cpu_pct=1.0, mem_mb=32.0),
        ]
        kw.setdefault("port", 7001)
        kw.setdefault("user", "finapp")
        kw.setdefault("base_response_ms", 80.0)
        kw.setdefault("connect_timeout_ms", 8000.0)
        super().__init__(host, name, version="4.2", processes=procs,
                         startup=[StartupStep("load-models", 45.0),
                                  StartupStep("bind", 15.0)],
                         shutdown_duration=15.0, **kw)
        #: the database this GUI queries (None = self-contained)
        self.backend = backend
        if backend is not None:
            self.depends_on.append((backend.host.name, backend.name))
        self.queries_served = 0
        self.sessions = 0

    def login(self, user: str) -> bool:
        """An analyst opens the GUI."""
        if self.state is not AppState.RUNNING:
            return False
        self.sessions += 1
        self.host.logged_in_users.add(user)
        return True

    def logout(self, user: str) -> None:
        self.sessions = max(0, self.sessions - 1)
        self.host.logged_in_users.discard(user)

    def serve_batch(self, n: int) -> Tuple[int, int, float]:
        """A batch of user-level queries: front-end work plus a backend
        round trip, the response time end users feel.  A dead backend
        fails the whole batch even though the GUI is up -- the
        "available services would often become unavailable without any
        explanation" experience."""
        if n <= 0:
            return (0, 0, 0.0)
        ok, ms, _err = self.probe()
        if not ok:
            return (0, n, ms)
        total = ms
        if self.backend is not None:
            bok, bms, _berr = self.backend.probe()
            if not bok:
                return (0, n, total + bms)
            total += bms
        self.queries_served += n
        return (n, 0, total)
