"""repro -- reproduction of Corsava & Getov, *Improving Quality of
Service in Application Clusters* (IPDPS 2003).

The paper's system -- cron-woken "intelliagents" with flat-ASCII
ontologies, HA administration servers, a private agent network and
DGSPL-driven batch-job resubmission -- implemented against a
deterministic discrete-event simulation of the pilot site (a financial
datacentre of Sun/HP/IBM/Linux servers running Oracle/Sybase-like
databases, web servers, financial front-ends and an LSF-like batch
scheduler).

Quick start::

    from repro.experiments.site import build_site, SiteConfig

    site = build_site(SiteConfig.test_scale(seed=1))
    site.databases[0].crash("demo")
    site.run(900)                       # 15 simulated minutes
    assert site.databases[0].is_healthy()   # an agent restarted it

Packages:

- :mod:`repro.sim` -- discrete-event kernel, RNG streams, calendar.
- :mod:`repro.cluster` -- simulated Unix hosts and the datacentre.
- :mod:`repro.net` -- LANs, TCP, agent-channel routing, DNS, NFS.
- :mod:`repro.apps` -- databases, web servers, front-ends, services.
- :mod:`repro.batch` -- the LSF-like scheduler and workloads.
- :mod:`repro.faults` -- fault taxonomy, injection, campaigns.
- :mod:`repro.metrics` -- samplers, microstates, circular logs.
- :mod:`repro.ops` -- the human-operations baseline (BMC + on-call).
- :mod:`repro.ontology` -- ISSL / SLKT / DLSP / DGSPL.
- :mod:`repro.core` -- the intelliagents and administration servers.
- :mod:`repro.experiments` -- drivers for every table and figure.
- :mod:`repro.parallel` -- process-pool Monte-Carlo helpers.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
