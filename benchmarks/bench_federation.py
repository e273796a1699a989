"""Geo-federation bench: what surviving a datacentre loss is worth.

Runs the S-fed story (Hong Kong dies at the APAC trading peak) across
the three arms and prices the two federation mechanisms in user terms.
Shape asserted: request-weighted availability under site loss is
*strictly* better with geo-steering AND cross-site relocation than
with either disabled -- each mechanism recovers demand the other
cannot (steering moves the stateless classes, relocation brings the
pinned databases back up).
"""

from conftest import emit

from repro.experiments import federation


def test_site_loss_availability(quick):
    population = 100_000 if quick else 1_000_000
    observe_h = 2.0 if quick else federation.OBSERVE_H
    story = federation.run(population=population, observe_h=observe_h)
    emit(federation.format_result(story))

    full = story.arms["full"]
    no_geo = story.arms["no-geo"]
    no_xsite = story.arms["no-xsite"]

    # every arm saw the same outage and detected it
    for arm in story.arms.values():
        assert arm["site_loss_events"] == 1
        assert arm["sites"]["hkg"]["lost"]

    # the headline inequalities: both mechanisms carry real weight
    assert story.availability("full") > story.availability("no-geo")
    assert story.availability("full") > story.availability("no-xsite")

    # each mechanism recovers what the other cannot; with relocation
    # disabled the escalation tier does not even exist
    assert full["crosssite"]["succeeded"] > 0
    assert "crosssite" not in no_xsite
    assert full["geo"]["remote_steered"] > no_geo["geo"]["remote_steered"]

    # losing a site costs users even in the best arm -- availability is
    # partial, never flat 1.0, and never collapses to zero
    for arm in story.arms.values():
        assert 0.0 < arm["global"]["availability"] < 1.0
    assert full["global"]["user_minutes_lost"] \
        < no_geo["global"]["user_minutes_lost"]
