"""LSF-like batch scheduling substrate.

The site scheduled analyst jobs against databases with Platform LSF
[16]: users manually picked database servers (or used cron/at), each
database server had a finite job-slot limit, and "large database jobs
scheduled to run overnight would frequently crash databases".

- :mod:`jobs` -- the batch job model and its failure semantics.
- :mod:`lsf` -- the scheduler: master daemon, queues, slots, dispatch.
- :mod:`workload` -- the overnight analyst workload generator.
"""

from repro.batch.jobs import BatchJob, JobState
from repro.batch.lsf import LsfCluster, LsfMaster
from repro.batch.workload import OvernightWorkload

__all__ = ["BatchJob", "JobState", "LsfCluster", "LsfMaster",
           "OvernightWorkload"]
