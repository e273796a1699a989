"""Web server model.

§3.4: "in the case of a web server they do an http 'get'".  The web
server keeps the request accounting the availability SLIs read.
"""

from __future__ import annotations

from typing import Tuple

from repro.apps.base import Application, ProcessSpec, StartupStep
from repro.persist.core import scalars

__all__ = ["WebServer"]


class WebServer(Application):
    """An httpd-style server."""

    app_type = "webserver"
    _persist_extra = scalars(int, "requests_attempted", "requests_served")

    def __init__(self, host, name: str, **kw):
        procs = [       # the master and eight workers
            ProcessSpec("httpd", 9, cpu_pct=0.5, mem_mb=6.0),
        ]
        kw.setdefault("port", 80)
        kw.setdefault("user", "www")
        kw.setdefault("base_response_ms", 10.0)
        kw.setdefault("connect_timeout_ms", 3000.0)
        super().__init__(host, name, version="1.3.26", processes=procs,
                         startup=[StartupStep("spawn-workers", 10.0)],
                         shutdown_duration=5.0, **kw)
        self.io_demand = 0.05
        #: every GET that reached (or tried to reach) the server --
        #: availability SLIs are served/attempted, so failures count too
        self.requests_attempted = 0
        self.requests_served = 0

    def http_get(self) -> Tuple[int, float]:
        """Serve a GET; returns (status_code, response_ms).

        Status 0 means no TCP-level answer at all (crashed/hung),
        matching the 'read the exit code' style of the agent probes.
        """
        self.requests_attempted += 1
        ok, ms, err = self.probe()
        if not ok:
            if err == "refused":
                return (0, 0.0)
            return (0, ms)      # timeout / starting
        self.requests_served += 1
        return (200, ms)

    def serve_batch(self, n: int) -> Tuple[int, int, float]:
        served, failed, ms = super().serve_batch(n)
        self.requests_attempted += served + failed
        self.requests_served += served
        return (served, failed, ms)
