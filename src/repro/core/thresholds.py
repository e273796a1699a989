"""Baselines and thresholds (§3.6).

"Baselines were set based on the hardware configuration of each system
and the application type it was running ... Every time a baseline
setting was not proven to be correct, we adjusted it accordingly."

A :class:`Baselines` object holds per-metric (min, max) bands -- the
"minimum and maximum software and hardware related variables" the
static ontologies carry -- seeded from the host spec and installed
application types, and supports the paper's adjust-on-evidence rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Band", "Breach", "Baselines"]


@dataclass(slots=True)
class Band:
    """Acceptable range for one metric.  None = unbounded on that side."""

    lo: Optional[float]
    hi: Optional[float]
    adjustments: int = 0

    def violated_by(self, value: float) -> Optional[str]:
        if self.hi is not None and value > self.hi:
            return "high"
        if self.lo is not None and value < self.lo:
            return "low"
        return None


@dataclass(frozen=True)
class Breach:
    """One threshold violation."""

    metric: str
    value: float
    direction: str         # "high" | "low"
    limit: float


class Baselines:
    """Per-host metric bands."""

    def __init__(self):
        self.bands: Dict[str, Band] = {}

    def set_band(self, metric: str, lo: Optional[float],
                 hi: Optional[float]) -> Band:
        band = Band(lo, hi)
        self.bands[metric] = band
        return band

    # -- checking ---------------------------------------------------------------

    def check(self, metrics: Dict[str, float]) -> List[Breach]:
        """Compare a metric snapshot against the bands."""
        breaches: List[Breach] = []
        for metric, value in metrics.items():
            band = self.bands.get(metric)
            if band is None:
                continue
            direction = band.violated_by(value)
            if direction is not None:
                limit = band.hi if direction == "high" else band.lo
                breaches.append(Breach(metric, value, direction,
                                       float(limit)))
        return breaches

    # -- the adjust-on-evidence rule ------------------------------------------------

    def adjust(self, metric: str, observed: float) -> None:
        """A human confirmed `observed` was actually fine: widen the
        violated side to cover it plus a 20 % margin.  "This happened
        quite often in the case of newly installed applications
        primarily."
        """
        band = self.bands.get(metric)
        if band is None:
            return
        if band.hi is not None and observed > band.hi:
            band.hi = observed * 1.2
            band.adjustments += 1
        elif band.lo is not None and observed < band.lo:
            band.lo = observed * 0.8
            band.adjustments += 1

    # -- seeding -----------------------------------------------------------------------

    @classmethod
    def for_host(cls, host) -> "Baselines":
        """Expert-informed defaults from the hardware spec and the
        application types installed (§3.6's measurement list)."""
        b = cls()
        spec = host.spec
        ram = float(spec.ram_mb)
        b.set_band("run_queue", None, spec.max_load * spec.cpus)
        b.set_band("scan_rate", None, 200.0)
        b.set_band("page_out", None, 100.0)
        b.set_band("page_faults", None, 500.0)
        b.set_band("free_mb", ram * 0.05, None)
        b.set_band("cpu_idle", 5.0, None)
        b.set_band("load_avg", None, spec.max_load)
        b.set_band("worst_asvc_t", None, 60.0)       # ms
        b.set_band("worst_user_cpu", None, 90.0)     # one user hogging
        b.set_band("total_errs", None, 50.0)
        for mount in host.fs.mounts:
            key = "root" if mount == "/" else mount.strip("/").replace("/", "_")
            b.set_band(f"fs_{key}_pct", None, 90.0)
        for app in host.apps.values():
            # application response bands from the developer-provided
            # connect timeouts (§3.2)
            b.set_band(f"{app.name}_response_ms", None,
                       app.connect_timeout_ms * 0.5)
        return b
