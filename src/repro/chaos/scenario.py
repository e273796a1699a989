"""The chaos scenario DSL.

A :class:`Scenario` is a small, declarative program against a live
site: a list of timed :class:`ChaosEvent`\\ s, each naming an
operation (a fault kind from the injector's structured
:data:`~repro.faults.injector.FAULT_CATALOG`, or one of the repair /
host-power ops below) and an *abstract* target selector that is
resolved against whatever site the episode builds.  Scenarios are
therefore site-independent, deterministic, and JSON round-trippable --
the committed corpus under ``tests/corpus/`` is nothing but these
files.

Target selectors
    ``db[i]`` ``fe[i]`` ``web[i]``          application pools
    ``dbhost[i]`` ``tphost[i]`` ``fehost[i]`` ``sphost[i]``
    ``admhost[i]``                          host pools (by group)
    ``lan[i]``                              public LAN segments
    ``dns`` ``lsf``                         singletons
    ``wan[i]``                              a federated site's leased
                                            lines (multi-site only)

Indices wrap modulo the pool size, so a scenario written against a
large site still resolves on a test-scale one.  Multi-site scenarios
(``sites > 1``) may scope any selector to one datacentre of their
world (:data:`WORLDS`) with a ``site:`` prefix -- ``nyc:dbhost[0]`` --
and an unscoped selector means the home site; single-site episodes
simply ignore the prefix.

Compositions the builders cover: correlated cascades, gray
failures/flapping, partitions with fault overlays, adversarial timing
against the adaptive wake policy's backoff windows, retry/notification
storms, host loss with relocation, and admin-head failover.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.faults.injector import FAULT_CATALOG

__all__ = ["ChaosEvent", "Scenario", "OPS", "TARGET_POOLS", "BUILDERS",
           "WORLDS", "build_corpus", "random_scenario", "parse_target",
           "split_site", "make_target"]

#: wake-policy constants the adversarial-timing builders aim at
WAKE_BASE = 300.0
WAKE_MAX = 1800.0
WAKE_GRACE = 300.0

#: hard caps keeping fuzzed scenarios executable
MAX_EVENTS = 64
MIN_HORIZON = 1800.0
MAX_HORIZON = 12 * 3600.0

#: ``Scenario.sites`` -> the site names of the world the executor
#: builds for it: 1 is the classic single site (any ``site:`` scope is
#: ignored), 3 is :func:`repro.federation.config.three_site_config`.
#: The first name is the home site unscoped selectors resolve in.
WORLDS: Dict[int, Tuple[str, ...]] = {1: (), 3: ("hkg", "lon", "nyc")}

#: repair / power operations that are not injector faults
REPAIR_OPS: Dict[str, str] = {
    "lan-repair": "lan",
    "nic-repair": "host",
    "dns-repair": "nameservice",
    "host-crash": "host",
    "host-boot": "host",
    "wan-repair": "wan",
}

#: op name -> required target kind ("database"/"app"/"host"/"lan"/...)
OPS: Dict[str, str] = {s.kind: s.target for s in FAULT_CATALOG}
OPS.update(REPAIR_OPS)

#: selector pool -> the target kinds it satisfies
TARGET_POOLS: Dict[str, Tuple[str, ...]] = {
    "db": ("database", "app"),
    "fe": ("app",),
    "web": ("app",),
    "dbhost": ("host",),
    "tphost": ("host",),
    "fehost": ("host",),
    "sphost": ("host",),
    "admhost": ("host",),
    "lan": ("lan",),
    "dns": ("nameservice",),
    "lsf": ("scheduler",),
    "wan": ("wan",),
}

#: pools eligible per target kind (for generation/retargeting)
POOLS_FOR_KIND: Dict[str, Tuple[str, ...]] = {
    "database": ("db",),
    "app": ("db", "fe", "web"),
    "host": ("dbhost", "tphost", "fehost", "admhost"),
    "lan": ("lan",),
    "nameservice": ("dns",),
    "scheduler": ("lsf",),
    "wan": ("wan",),
}


def split_site(selector: str) -> Tuple[Optional[str], str]:
    """``"nyc:db[0]"`` -> ``("nyc", "db[0]")``; an unscoped selector
    returns ``(None, selector)``.  Site scoping only means something to
    multi-site scenarios; single-site episodes ignore the prefix."""
    sel = selector.strip()
    if ":" in sel:
        site, _, rest = sel.partition(":")
        return site, rest
    return None, sel


def parse_target(selector: str) -> Tuple[str, int]:
    """``"db[3]"`` -> ``("db", 3)``; bare ``"dns"`` -> ``("dns", 0)``.
    Any site scope is stripped first (see :func:`split_site`)."""
    _site, sel = split_site(selector)
    if sel.endswith("]") and "[" in sel:
        pool, _, idx = sel[:-1].partition("[")
        if not idx.isdigit():
            raise ValueError(f"bad target selector {selector!r}")
        return pool, int(idx)
    return sel, 0


def make_target(pool: str, index: int) -> str:
    return pool if pool in ("dns", "lsf") else f"{pool}[{index}]"


@dataclass(frozen=True)
class ChaosEvent:
    """One timed operation against one abstract target."""

    time: float
    op: str
    target: str
    #: immutable (key, value) pairs -- e.g. (("fraction", 0.99),)
    params: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def validate(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"event time must be >= 0: {self.time!r}")
        kind = OPS.get(self.op)
        if kind is None:
            raise ValueError(f"unknown op {self.op!r}")
        pool, idx = parse_target(self.target)
        kinds = TARGET_POOLS.get(pool)
        if kinds is None:
            raise ValueError(f"unknown target pool {pool!r} "
                             f"in {self.target!r}")
        if kind not in kinds:
            raise ValueError(
                f"op {self.op!r} needs a {kind} target, but "
                f"{self.target!r} is a {'/'.join(kinds)} selector")
        if idx < 0:
            raise ValueError(f"negative target index in {self.target!r}")

    def to_dict(self) -> dict:
        d: dict = {"time": self.time, "op": self.op,
                   "target": self.target}
        if self.params:
            d["params"] = {k: v for k, v in self.params}
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "ChaosEvent":
        params = tuple(sorted((str(k), v)
                              for k, v in dict(d.get("params", {})).items()))
        return cls(time=float(d["time"]), op=str(d["op"]),
                   target=str(d["target"]), params=params)


@dataclass
class Scenario:
    """A named, seeded, bounded chaos program."""

    name: str
    events: List[ChaosEvent] = field(default_factory=list)
    horizon: float = 4 * 3600.0
    #: site seed (build layout + every named random stream)
    seed: int = 0
    notes: str = ""
    #: how many federated sites the episode builds; 1 = the classic
    #: single-site world (and the field is omitted from the JSON, so
    #: the committed single-site corpus stays byte-identical)
    sites: int = 1

    # -- hygiene -------------------------------------------------------------

    def normalized(self) -> "Scenario":
        """Sorted events, clamped horizon, capped length -- the
        canonical form every mutation passes through."""
        horizon = min(MAX_HORIZON, max(MIN_HORIZON, float(self.horizon)))
        events = sorted(self.events,
                        key=lambda e: (e.time, e.op, e.target))[:MAX_EVENTS]
        events = [replace(e, time=min(max(0.0, e.time), horizon - 1.0))
                  for e in events]
        return Scenario(name=self.name, events=events, horizon=horizon,
                        seed=int(self.seed), notes=self.notes,
                        sites=int(self.sites))

    def validate(self) -> None:
        """Raise ValueError on any malformed field."""
        if not self.name:
            raise ValueError("scenario needs a name")
        names = WORLDS.get(self.sites)
        if names is None:
            raise ValueError(f"sites must be one of {sorted(WORLDS)}: "
                             f"{self.sites!r}")
        if not (MIN_HORIZON <= self.horizon <= MAX_HORIZON):
            raise ValueError(f"horizon {self.horizon!r} outside "
                             f"[{MIN_HORIZON}, {MAX_HORIZON}]")
        if len(self.events) > MAX_EVENTS:
            raise ValueError(f"too many events ({len(self.events)} > "
                             f"{MAX_EVENTS})")
        last = 0.0
        for ev in self.events:
            ev.validate()
            scope, _rest = split_site(ev.target)
            if names and scope is not None and scope not in names:
                raise ValueError(
                    f"{ev.target!r} names site {scope!r}, but a "
                    f"{self.sites}-site world has {', '.join(names)}")
            if ev.time >= self.horizon:
                raise ValueError(f"event at {ev.time} beyond horizon "
                                 f"{self.horizon}")
            if ev.time < last:
                raise ValueError("events not time-sorted; call "
                                 "normalized() first")
            last = ev.time

    # -- identity ------------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        """Stable content id: name plus a crc of the canonical JSON."""
        return f"{self.name}#{zlib.crc32(self.to_json().encode()):08x}"

    # -- JSON round-trip -----------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "seed": self.seed,
            "horizon": self.horizon,
            "notes": self.notes,
            "events": [e.to_dict() for e in self.events],
        }
        if self.sites != 1:
            d["sites"] = self.sites
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "Scenario":
        return cls(name=str(d["name"]),
                   events=[ChaosEvent.from_dict(e)
                           for e in d.get("events", ())],
                   horizon=float(d.get("horizon", 4 * 3600.0)),
                   seed=int(d.get("seed", 0)),
                   notes=str(d.get("notes", "")),
                   sites=int(d.get("sites", 1)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


# -- builders: the committed corpus ---------------------------------------------


def _sc(name: str, events: Iterable[ChaosEvent], *, horizon: float,
        seed: int = 0, notes: str = "", sites: int = 1) -> Scenario:
    s = Scenario(name=name, events=list(events), horizon=horizon,
                 seed=seed, notes=notes, sites=sites).normalized()
    s.validate()
    return s


def cascade(seed: int = 0) -> Scenario:
    """Correlated failure chain: the backend database dies, then the
    services depending on it topple one by one."""
    return _sc("cascade", [
        ChaosEvent(1200.0, "db-crash", "db[0]"),
        ChaosEvent(1380.0, "app-crash", "fe[0]"),
        ChaosEvent(1500.0, "app-crash", "web[0]"),
        ChaosEvent(1680.0, "app-hang", "fe[1]"),
    ], horizon=3 * 3600.0, seed=seed,
        notes="dependency cascade off one backend crash")


def flap(seed: int = 0) -> Scenario:
    """Gray failure: one host's NIC flaps -- fail/repair cycles faster
    than the watchdog period, never cleanly down."""
    events = []
    t = 1500.0
    for _ in range(4):
        events.append(ChaosEvent(t, "nic-fail", "tphost[0]"))
        events.append(ChaosEvent(t + 240.0, "nic-repair", "tphost[0]"))
        t += 700.0
    return _sc("flap", events, horizon=3 * 3600.0, seed=seed,
               notes="NIC flapping under the watchdog period")


def partition_fault(seed: int = 0) -> Scenario:
    """Network partition with a fault overlay: one public LAN drops,
    services break *during* the partition, then the LAN heals."""
    return _sc("partition-fault", [
        ChaosEvent(1800.0, "lan-fail", "lan[0]"),
        ChaosEvent(2100.0, "app-crash", "fe[0]"),
        ChaosEvent(2400.0, "db-crash", "db[1]"),
        ChaosEvent(4200.0, "lan-repair", "lan[0]"),
    ], horizon=4 * 3600.0, seed=seed,
        notes="faults injected while a LAN segment is dark")


def wake_adversarial(seed: int = 0) -> Scenario:
    """Adversarial timing against the adaptive wake policy: a long
    quiet stretch lets every agent back off to its maximum period,
    then agents are silenced exactly when the staleness gap is widest."""
    deep = WAKE_BASE  # 300 -> 600 -> 1200 -> 1800 takes ~2100 s clean
    quiet_until = 2 * (deep + 2 * deep + 4 * deep)  # comfortably past it
    return _sc("wake-adversarial", [
        ChaosEvent(quiet_until, "cron-death", "dbhost[0]"),
        ChaosEvent(quiet_until + 900.0, "cron-death", "tphost[1]"),
    ], horizon=4 * 3600.0, seed=seed,
        notes="agent silence landed after deep wake backoff")


def retry_storm(seed: int = 0) -> Scenario:
    """Many user-facing services fail within minutes -- the
    notification-storm and escalation-ordering pressure test."""
    events = []
    for i in range(4):
        events.append(ChaosEvent(1800.0 + 60.0 * i, "app-crash",
                                 f"fe[{i}]"))
        events.append(ChaosEvent(1830.0 + 60.0 * i, "app-crash",
                                 f"web[{i}]"))
    return _sc("retry-storm", events, horizon=3 * 3600.0, seed=seed,
               notes="burst failure of every user-facing tier")


def host_loss(seed: int = 0) -> Scenario:
    """Whole-host loss and late return: exercises relocation onto the
    spare pool and the escalate/clear latch."""
    return _sc("host-loss", [
        ChaosEvent(1500.0, "host-crash", "dbhost[0]"),
        ChaosEvent(9000.0, "host-boot", "dbhost[0]"),
    ], horizon=4 * 3600.0, seed=seed,
        notes="host dies, relocation fires, host returns much later")


def cron_silence(seed: int = 0) -> Scenario:
    """Early agent silence on two hosts -- the plain watchdog
    demand-wake / cron-repair path, no backoff involved."""
    return _sc("cron-silence", [
        ChaosEvent(900.0, "cron-death", "fehost[0]"),
        ChaosEvent(1100.0, "cron-death", "dbhost[1]"),
    ], horizon=2 * 3600.0, seed=seed,
        notes="crond dies before agents ever back off")


def config_drift(seed: int = 0) -> Scenario:
    """Human error week: a config edit kills one service and an
    operator pkills the wrong worker on another."""
    return _sc("config-drift", [
        ChaosEvent(2000.0, "config-corruption", "fe[1]"),
        ChaosEvent(2600.0, "wrong-kill", "web[1]"),
    ], horizon=3 * 3600.0, seed=seed,
        notes="the HUMAN category, as a scenario")


def resource_squeeze(seed: int = 0) -> Scenario:
    """Performance faults stacked on one host: leak + runaway + full
    log disk, all sub-fatal, all for the performance agents."""
    return _sc("resource-squeeze", [
        ChaosEvent(1500.0, "memory-leak", "tphost[0]"),
        ChaosEvent(1800.0, "runaway-process", "tphost[0]"),
        ChaosEvent(2100.0, "disk-fill", "tphost[0]",
                   (("fraction", 0.99), ("mount", "/logs"))),
    ], horizon=3 * 3600.0, seed=seed,
        notes="compound degradation without an outage")


def dns_outage(seed: int = 0) -> Scenario:
    """The name service goes dark with a service fault inside the
    window, then recovers."""
    return _sc("dns-outage", [
        ChaosEvent(1800.0, "dns-fail", "dns"),
        ChaosEvent(2400.0, "app-crash", "web[0]"),
        ChaosEvent(4500.0, "dns-repair", "dns"),
    ], horizon=3 * 3600.0, seed=seed,
        notes="resolution outage overlapping a service fault")


def hw_attrition(seed: int = 0) -> Scenario:
    """Staggered component failures across three hosts -- some fatal,
    some latent, none auto-fixable per the paper."""
    return _sc("hw-attrition", [
        ChaosEvent(1500.0, "hw-fail", "dbhost[2]"),
        ChaosEvent(3600.0, "hw-fail", "tphost[1]"),
        ChaosEvent(5700.0, "hw-fail", "fehost[1]"),
    ], horizon=4 * 3600.0, seed=seed,
        notes="hardware wear-out pattern")


def lsf_mid_batch(seed: int = 0) -> Scenario:
    """The batch scheduler master crashes, then a database dies while
    the scheduler is still being healed."""
    return _sc("lsf-mid-batch", [
        ChaosEvent(1800.0, "lsf-crash", "lsf"),
        ChaosEvent(2000.0, "db-crash", "db[2]"),
    ], horizon=3 * 3600.0, seed=seed,
        notes="scheduler loss with a concurrent backend fault")


def admin_failover(seed: int = 0) -> Scenario:
    """The primary administration head dies mid-watch and returns
    later: HA failover, then failback, with a fault in between."""
    return _sc("admin-failover", [
        ChaosEvent(1800.0, "host-crash", "admhost[0]"),
        ChaosEvent(2700.0, "app-crash", "fe[0]"),
        ChaosEvent(7200.0, "host-boot", "admhost[0]"),
    ], horizon=4 * 3600.0, seed=seed,
        notes="coordinator failover under load")


def site_loss(seed: int = 0) -> Scenario:
    """Federated site loss with split-brain: New York's leased lines
    drop first (the surviving sites stop hearing from it), then every
    user-facing host there dies -- geo-steering and the cross-site
    relocation tier must carry its region until the line returns."""
    events = [ChaosEvent(1800.0, "wan-partition", "wan[2]")]
    for i in range(4):
        events.append(ChaosEvent(2100.0 + 60.0 * i, "host-crash",
                                 f"nyc:dbhost[{i}]"))
    for i in range(2):
        events.append(ChaosEvent(2400.0 + 60.0 * i, "host-crash",
                                 f"nyc:fehost[{i}]"))
    events.append(ChaosEvent(7200.0, "wan-repair", "wan[2]"))
    return _sc("site-loss", events, horizon=3 * 3600.0, seed=seed,
               sites=3,
               notes="split-brain then total site loss of nyc")


#: name -> builder; the committed corpus is exactly these, per seed
BUILDERS: Dict[str, Callable[[int], Scenario]] = {
    "cascade": cascade,
    "flap": flap,
    "partition-fault": partition_fault,
    "wake-adversarial": wake_adversarial,
    "retry-storm": retry_storm,
    "host-loss": host_loss,
    "cron-silence": cron_silence,
    "config-drift": config_drift,
    "resource-squeeze": resource_squeeze,
    "dns-outage": dns_outage,
    "hw-attrition": hw_attrition,
    "lsf-mid-batch": lsf_mid_batch,
    "admin-failover": admin_failover,
    "site-loss": site_loss,
}


def build_corpus(seed: int = 0) -> Dict[str, Scenario]:
    """Every named builder scenario at the given seed."""
    return {name: fn(seed) for name, fn in BUILDERS.items()}


# -- generation (fuzzer seeding) ------------------------------------------------

#: ops a generated event may use (host-boot only makes sense after a
#: crash, so generation pairs it; repairs likewise).  WAN faults need
#: a federation, so single-site generation never draws them.
_GEN_FAULTS = tuple(s.kind for s in FAULT_CATALOG if s.target != "wan")


def random_event(rng, horizon: float) -> ChaosEvent:
    """One random catalog event with a pool-appropriate target."""
    op = _GEN_FAULTS[int(rng.integers(len(_GEN_FAULTS)))]
    pools = POOLS_FOR_KIND[OPS[op]]
    pool = pools[int(rng.integers(len(pools)))]
    index = int(rng.integers(4))
    # bias times toward wake-backoff boundaries: multiples of the base
    # period with jitter, which is where the adaptive policy is softest
    k = int(rng.integers(1, int(horizon / WAKE_BASE)))
    t = min(horizon - 1.0, k * WAKE_BASE + float(rng.uniform(-60.0, 60.0)))
    return ChaosEvent(max(0.0, t), op, make_target(pool, index))


def random_scenario(rng, name: str, *, seed: int = 0) -> Scenario:
    """A small random scenario of one to six events over three hours
    (fuzzer corpus seeding)."""
    horizon = 3 * 3600.0
    events = [random_event(rng, horizon)
              for _ in range(int(rng.integers(1, 7)))]
    return Scenario(name=name, events=events, horizon=horizon,
                    seed=seed).normalized()
