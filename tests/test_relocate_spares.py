"""Unit tests for the spare-server pool (repro.relocate.spares)."""

import pytest

from repro.apps.frontend import FrontendApp
from repro.apps.webserver import WebServer
from repro.relocate import SparePool


@pytest.fixture
def spares(dc):
    pool = SparePool(dc)
    for name in ("sp02", "sp01"):       # registration order irrelevant
        host = dc.add_host(name, "sun-e10k", group="spare")
        FrontendApp(host, f"finapp_{name}", auto_start=False)
        WebServer(host, f"httpd_{name}", auto_start=False)
        pool.register(host)
    return pool


def test_register_captures_idle_slots_as_template(spares):
    slkt = spares.slkt_of("sp01")
    assert set(slkt.apps) == {"finapp_sp01", "httpd_sp01"}
    assert not slkt.apps["finapp_sp01"].auto_start
    assert slkt.apps["finapp_sp01"].app_type == "frontend"
    assert spares.is_spare("sp01") and not spares.is_spare("db01")


def test_available_is_name_ordered(spares):
    assert spares.available() == ["sp01", "sp02"]


def test_claim_and_release(spares):
    assert spares.claim("sp01", "fe01/finapp01")
    assert spares.claims["sp01"] == "fe01/finapp01"
    assert spares.available() == ["sp02"]
    # a claimed spare cannot be claimed again
    assert not spares.claim("sp01", "fe01/other")
    # nor can a host that is not a spare
    assert not spares.claim("db01", "x")
    spares.release("sp01")
    assert spares.available() == ["sp01", "sp02"]
    assert spares.claims_made == 1 and spares.claims_released == 1
    # releasing an unclaimed spare is a no-op
    spares.release("sp01")
    assert spares.claims_released == 1


def test_down_spare_not_available(spares, dc):
    dc.host("sp01").crash("power")
    assert spares.available() == ["sp02"]
