"""The incremental control plane.

One shared, versioned **condition ledger** per site replaces the four
re-implemented full-rescan loops (admin flag sweep, DGSPL rebuild,
reroute refresh, front-door shed checks) with change-event consumption:
producers append typed :class:`Condition` deltas, consumers read only
entries newer than their last-seen version.  Staleness -- the paper's
"absence of flags" signal -- is detected by a :class:`DeadlineWheel`
fed from the same ledger, so the semantics of the polling design are
preserved while the per-cycle cost drops from O(site) to O(changes).
"""

from repro.controlplane.deadline import DeadlineWheel
from repro.controlplane.ledger import (Condition, ConditionLedger,
                                       LedgerCursor)

__all__ = ["Condition", "ConditionLedger", "LedgerCursor",
           "DeadlineWheel"]
