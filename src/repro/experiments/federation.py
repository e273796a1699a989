"""S-fed: losing a whole datacentre at its region's trading peak.

The canonical 3-site follow-the-sun federation (London / New York /
Hong Kong, 1M users split across emea / amer / apac) serves its
regional demand normally, then Hong Kong goes completely dark in the
middle of the APAC trading morning -- the worst possible moment for
that site's users.  Three arms run the *same* story:

- **full** -- geo-steering recovers the stateless (web / front-end)
  demand onto London and New York, and the cross-site relocation tier
  lands Hong Kong's pinned databases on the survivors' spare pools;
- **no-geo** -- steering disabled: stateless APAC demand sheds at the
  dead home site;
- **no-xsite** -- cross-site relocation disabled: the pinned database
  demand has nowhere to come back up.

The claim its ``s-fed.*`` CLAIMS check: request-weighted availability
under site loss is strictly better with both mechanisms than with either
disabled.  Every arm is deterministic -- byte-identical summaries
across repeats, and across a checkpoint/restore of the federation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.report import table
from repro.sim.calendar import HOUR

__all__ = ["ARMS", "FederationStory", "run", "format_result"]

#: arm name -> (geo_steering, cross_site_relocation)
ARMS: Dict[str, tuple] = {
    "full": (True, True),
    "no-geo": (False, True),
    "no-xsite": (True, False),
}

#: the site that dies, and when: 03:00 UTC = 11:00 in APAC, Hong
#: Kong's trading morning
LOST_SITE, LOSS_AT_H = "hkg", 3.0
#: how long the federation runs on after the loss
OBSERVE_H = 4.0


@dataclass
class FederationStory:
    """One site-loss story across all arms."""

    population: int
    #: arm name -> the federation's final summary dict
    arms: Dict[str, dict] = field(default_factory=dict)

    def availability(self, arm: str) -> float:
        return self.arms[arm]["global"]["availability"]


def run(*, seed: int = 0, population: int = 1_000_000) -> FederationStory:
    """All three arms of the same site-loss story."""
    from repro.federation import build_federation
    from repro.federation.config import three_site_config

    story = FederationStory(population=population)
    for arm, (geo, xsite) in ARMS.items():
        fed = build_federation(three_site_config(
            population=population, seed=seed, geo_steering=geo,
            cross_site_relocation=xsite))
        fed.start_traffic()
        fed.run(LOSS_AT_H * HOUR - fed.now)
        site = fed.sites[LOST_SITE]
        for name in sorted(site.dc.hosts):
            site.dc.hosts[name].crash()
        fed.run(OBSERVE_H * HOUR)
        story.arms[arm] = fed.summary()
    return story


def format_result(story: FederationStory) -> str:
    """The S-fed tables: per-arm global QoS, then the full arm's
    per-site picture."""
    rows: List[list] = []
    for arm in ARMS:
        s = story.arms[arm]
        g = s["global"]
        rows.append([
            arm,
            f"{g['availability']:.6f}",
            int(g["failed"] + g["shed"]),
            f"{g['user_minutes_lost']:,.0f}",
            s["crosssite"]["succeeded"] if "crosssite" in s else 0,
            s["geo"]["remote_steered"],
        ])
    out = table(
        ["arm", "availability", "requests lost", "user-min lost",
         "takeovers", "remote-steered"],
        rows,
        title=(f"S-fed: {LOST_SITE} lost at "
               f"{LOSS_AT_H:02.0f}:00 UTC (its trading morning), "
               f"{story.population:,} users, "
               f"{OBSERVE_H:g} h observed"))

    s = story.arms["full"]
    site_rows = []
    for name in sorted(s["sites"]):
        row = s["sites"][name]
        site_rows.append([
            name,
            f"{row['hosts_up']}/{row['hosts_total']}",
            "LOST" if row["lost"] else "up",
            int(row.get("served", 0)),
            f"{row.get('availability', 1.0):.6f}",
            f"{row.get('user_minutes_lost', 0.0):,.0f}",
            row.get("takeovers_hosted", 0),
        ])
    out += "\n\n" + table(
        ["site", "hosts", "state", "served", "availability",
         "user-min lost", "takeovers hosted"],
        site_rows, title="Per-site (full arm)")

    full = story.availability("full")
    out += ("\n\nrequest-weighted availability: "
            f"full {full:.6f} "
            f"vs no-geo {story.availability('no-geo'):.6f} "
            f"vs no-xsite {story.availability('no-xsite'):.6f}")
    return out
