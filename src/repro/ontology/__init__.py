"""Static and dynamic ontologies (§3.1.4 of the paper).

All four ontology kinds are flat ASCII files "readable by most Unix
tools (operators) and human administrators":

- **ISSL** (:mod:`issl`) -- index static service lists: up to 200
  manually-maintained entries of servers/resources, IPs and services.
- **SLKT** (:mod:`slkt`) -- static local knowledge templates: what a
  server *should* look like; the constraints for causal reasoning.
- **DLSP** (:mod:`dlsp`) -- dynamic local service profiles: what a
  server *does* look like right now, regenerated by its status agent.
- **DGSPL** (:mod:`dgspl`) -- dynamic global service profile lists:
  datacentre-wide service availability, built by the administration
  servers from the DLSPs.

:mod:`base` holds the shared flat-ASCII record codec; every ontology
round-trips exactly through text.
"""

from repro.ontology.base import OntologyDoc, OntologyError
from repro.ontology.issl import Issl, IsslEntry
from repro.ontology.slkt import (AppTemplate, Deviation, HardwareTemplate,
                                 Slkt, build_slkt)
from repro.ontology.dlsp import Dlsp, ServiceStatus, build_dlsp
from repro.ontology.dgspl import Dgspl, GlobalServiceEntry, build_dgspl

__all__ = ["OntologyDoc", "OntologyError", "Issl", "IsslEntry",
           "Slkt", "AppTemplate", "HardwareTemplate", "Deviation",
           "build_slkt", "Dlsp", "ServiceStatus", "build_dlsp",
           "Dgspl", "GlobalServiceEntry", "build_dgspl"]
