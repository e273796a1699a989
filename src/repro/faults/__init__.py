"""Fault taxonomy, injection and campaigns.

Figure 2 of the paper breaks a production year's downtime into eight
error categories.  :mod:`models` defines that taxonomy and the
per-category behavioural profiles; :mod:`injector` applies concrete
faults to a live simulated datacentre (full-fidelity mode);
:mod:`campaign` generates and scores a calibrated year-long fault
campaign on the exact cron grid (the fast path the ``fig2`` row runs --
see the simulation-speed note in DESIGN.md).
"""

from repro.faults.models import (Category, CategoryProfile, FaultEvent,
                                 CATEGORY_PROFILES)
from repro.faults.injector import FaultInjector
from repro.faults.campaign import Campaign, CampaignResult, PipelineParams

__all__ = ["Category", "CategoryProfile", "FaultEvent", "CATEGORY_PROFILES",
           "FaultInjector", "Campaign", "CampaignResult", "PipelineParams"]
