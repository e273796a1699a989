"""Web server model.

§3.4: "in the case of a web server they do an http 'get'".  The web
server answers it; request accounting is the traffic tier's SLIs.
"""

from __future__ import annotations

from typing import Tuple

from repro.apps.base import Application, ProcessSpec, StartupStep

__all__ = ["WebServer"]


class WebServer(Application):
    """An httpd-style server."""

    app_type = "webserver"

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

    def http_get(self) -> Tuple[int, float]:
        """Serve a GET; returns (status_code, response_ms).

        Status 0 means no TCP-level answer at all (crashed/hung),
        matching the 'read the exit code' style of the agent probes.
        """
        ok, ms, err = self.probe()
        if not ok:
            if err == "refused":
                return (0, 0.0)
            return (0, ms)      # timeout / starting
        return (200, ms)

    def serve_batch(self, n: int) -> Tuple[int, int, float]:
        # the base class's batch, bound here by name:
        # benchmarks/e2e/layers.py times each tier's serve_batch
        return super().serve_batch(n)
