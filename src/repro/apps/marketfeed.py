"""Market-data feed driver.

"Market data feeds would come in from all parts of the world from
international customer sites and other places such as Reuters" (§4).
The feed is a generator process that delivers ticks into one or more
databases over the public LAN; a firewall/network fault or a dead
database makes ticks drop, which the performance agents see as a feed
stall.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.database import Database
from repro.net.tcp import tcp_connect

__all__ = ["MarketFeed"]


class MarketFeed:
    """An external data feed pushing ticks into the site's databases."""

    def __init__(self, dc, name: str, source_host: str,
                 targets: List[Database], *, interval: float = 60.0):
        self.dc = dc
        self.name = name
        self.source_host = source_host
        self.targets = list(targets)
        self.interval = float(interval)
        self.ticks_sent = 0
        self.ticks_delivered = 0
        self.ticks_dropped = 0
        self.last_delivery: Optional[float] = None
        self.running = False
        self._proc = None

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        sim = self.dc.sim
        self._proc = sim.spawn(self._pump(), name=f"feed.{self.name}")

    def stop(self) -> None:
        self.running = False
        if self._proc is not None and not self._proc.done:
            self._proc.stop()
            self._proc = None

    def _pump(self):
        sim = self.dc.sim
        while self.running:
            yield self.interval
            if not self.running:
                return
            for db in self.targets:
                self.ticks_sent += 1
                res = tcp_connect(self.dc, self.source_host,
                                  db.host.name, db.port,
                                  timeout_ms=db.connect_timeout_ms,
                                  restrict_kind="public")
                if res.ok:
                    db.transactions += 1
                    self.ticks_delivered += 1
                    self.last_delivery = sim.now
                else:
                    self.ticks_dropped += 1

    def stalled_for(self, now: float) -> float:
        """Seconds since the last successful delivery (inf if never)."""
        if self.last_delivery is None:
            return float("inf") if self.ticks_sent else 0.0
        return now - self.last_delivery

    def delivery_rate(self) -> float:
        if not self.ticks_sent:
            return 1.0
        return self.ticks_delivered / self.ticks_sent
