"""Simulated application substrate.

The pilot site ran Oracle and Sybase databases, web servers, financial
GUI front-ends and multi-component distributed applications.  This
package provides behavioural equivalents that expose exactly the
surface the intelliagents script against: start/stop control scripts,
listening ports, health probes ("connect and run a basic command"),
process-table footprints, error logs, and failure modes (crash,
hang/latent error, degradation).

- :mod:`base` -- the application state machine and control scripts.
- :mod:`database` -- Oracle/Sybase-like database servers.
- :mod:`webserver` -- HTTP servers (probe = ``get``).
- :mod:`frontend` -- financial GUI front-end applications.
- :mod:`distributed` -- multi-component distributed services with a
  dependency DAG and an end-to-end dummy-transaction probe.
"""

from repro.apps.base import Application, AppState, ProcessSpec
from repro.apps.database import Database
from repro.apps.webserver import WebServer
from repro.apps.frontend import FrontendApp
from repro.apps.distributed import DistributedService, Component

__all__ = ["Application", "AppState", "ProcessSpec", "Database",
           "WebServer", "FrontendApp", "DistributedService", "Component"]
