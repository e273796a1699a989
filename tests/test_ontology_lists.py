"""Unit tests for ISSL, DLSP and DGSPL ontologies."""

import pytest

from repro.ontology.base import OntologyDoc, OntologyError
from repro.ontology.dgspl import Dgspl, build_dgspl
from repro.ontology.dlsp import Dlsp, build_dlsp
from repro.ontology.issl import MAX_ENTRIES, Issl


def to_doc(x) -> OntologyDoc:
    """The oracle for the live lists' one-pass renderers: a DLSP or
    DGSPL as the record-by-record document ``OntologyDoc.render`` turns
    into lines.  ``x.render()`` must equal ``to_doc(x).render()``."""
    if isinstance(x, Dlsp):
        doc = OntologyDoc("DLSP", x.generated_at)
        doc.add("host",
                name=x.hostname, model=x.model, os=x.os,
                cpus=str(x.cpus), ram_mb=str(x.ram_mb),
                load_avg=repr(x.load_avg), cpu_util=repr(x.cpu_util),
                free_mem_mb=repr(x.free_mem_mb), users=str(x.users),
                site=x.site, location=x.location, up="yes" if x.up else "no")
        for s in x.services:
            doc.add("service", name=s.name, type=s.app_type,
                    version=s.version, state=s.state, port=str(s.port),
                    healthy="yes" if s.healthy else "no",
                    response_ms=repr(s.response_ms))
        return doc
    doc = OntologyDoc("DGSPL", x.generated_at)
    for e in x.entries:
        doc.add("service",
                server=e.server, server_type=e.server_type, os=e.os,
                ram_mb=str(e.ram_mb), cpus=str(e.cpus),
                app_name=e.app_name, app_type=e.app_type,
                app_version=e.app_version,
                current_load=repr(e.current_load),
                users=str(e.users), location=e.location, site=e.site)
    return doc


# ------------------------------------------------------------------ ISSL --

def test_issl_add_lookup_remove():
    issl = Issl()
    issl.add("db01", "192.168.1.10", services=["oracle"])
    assert issl.get("db01").ip == "192.168.1.10"
    assert issl.names() == ["db01"]
    assert issl.with_service("oracle")[0].name == "db01"
    assert issl.remove("db01")
    assert not issl.remove("db01")


def test_issl_200_entry_limit():
    issl = Issl()
    for i in range(MAX_ENTRIES):
        issl.add(f"h{i:03d}", f"10.0.{i // 250}.{i % 250}")
    with pytest.raises(OntologyError):
        issl.add("one-too-many", "10.9.9.9")
    # updating an existing entry is fine at the cap
    issl.add("h000", "10.0.0.99")
    assert issl.get("h000").ip == "10.0.0.99"


def test_issl_roundtrip(db_host):
    issl = Issl()
    issl.add("db01", "1.2.3.4", kind="server", services=["ora", "web"])
    issl.add("tape0", "1.2.3.9", kind="resource")
    issl.write_to(db_host.fs, "/apps/issl", now=1.0)
    back = Issl.read_from(db_host.fs, "/apps/issl")
    assert back.entries() == issl.entries()


def test_issl_from_wrong_doc():
    with pytest.raises(OntologyError):
        Issl.from_doc(OntologyDoc("DLSP"))


# ------------------------------------------------------------------ DLSP --

def test_build_dlsp_snapshots_host(database):
    dlsp = build_dlsp(database.host)
    assert dlsp.hostname == "db01"
    assert dlsp.up
    svc = dlsp.service(database.name)
    assert svc is not None and svc.healthy
    assert svc.response_ms > 0
    assert dlsp.cpus == database.host.effective_cpus()


def test_dlsp_marks_dead_service(database):
    database.crash("x")
    dlsp = build_dlsp(database.host)
    svc = dlsp.service(database.name)
    assert not svc.healthy
    assert dlsp.healthy_services() == []


def test_dlsp_roundtrip(database):
    dlsp = build_dlsp(database.host)
    assert dlsp.render() == to_doc(dlsp).render()
    back = Dlsp.from_doc(OntologyDoc.parse(dlsp.render()))
    assert back == dlsp
    dlsp.write_to(database.host.fs, "/apps/dlsp")
    assert Dlsp.read_from(database.host.fs, "/apps/dlsp") == dlsp


# ----------------------------------------------------------------- DGSPL --

def test_build_dgspl_filters_unhealthy(database, webserver):
    dlsps = [build_dlsp(database.host), build_dlsp(webserver.host)]
    g = build_dgspl(dlsps, now=5.0)
    assert len(g) == 2
    database.crash("x")
    g2 = build_dgspl([build_dlsp(database.host),
                      build_dlsp(webserver.host)], now=6.0)
    assert len(g2) == 1
    assert g2.entries[0].app_type == "webserver"


def test_dgspl_excludes_down_hosts(database):
    dlsp = build_dlsp(database.host)
    database.host.crash("x")
    dead = build_dlsp(database.host)
    g = build_dgspl([dead], now=0.0)
    assert len(g) == 0
    g2 = build_dgspl([dlsp], now=0.0)
    assert len(g2) == 1


def test_shortlist_best_first(database, dc, sim):
    from repro.apps.database import Database
    big_host = dc.add_host("big", "sun-e10k")
    big = Database(big_host, "bigdb")
    big.start()
    sim.run(until=sim.now + 200)
    # load the big one
    big_host.extra_runnable = big_host.effective_cpus() * 6
    g = build_dgspl([build_dlsp(database.host), build_dlsp(big_host)])
    ranked = g.shortlist("database")
    assert ranked[0].server == "db01"          # least loaded first
    assert g.shortlist("database", exclude_servers=["db01"])[0].server == "big"
    strong = g.shortlist("database", min_power=g.power_of("big"))
    assert [e.server for e in strong] == ["big"]
    capped = g.shortlist("database", max_load=1.0)
    assert [e.server for e in capped] == ["db01"]


def test_power_of_unknown_server(database):
    g = build_dgspl([build_dlsp(database.host)])
    assert g.power_of("ghost") == 0.0
    assert g.power_of("db01") > 0


def test_dgspl_roundtrip_and_grid_ads(database):
    g = build_dgspl([build_dlsp(database.host)], now=7.0)
    assert g.render() == to_doc(g).render()
    back = Dgspl.from_doc(OntologyDoc.parse(g.render()))
    assert back.entries == g.entries
    g.write_to(database.host.fs, "/apps/dgspl")
    again = Dgspl.read_from(database.host.fs, "/apps/dgspl")
    assert (again.generated_at, again.entries) == (7.0, g.entries)
    ads = g.grid_advertisement()
    assert len(ads) == 1
    assert ads[0].startswith("service://london/db01/")
