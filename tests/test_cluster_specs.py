"""Unit tests for the server catalogue."""

import pytest

from repro.cluster.specs import SPEC_CATALOGUE, spec


def test_catalogue_covers_the_papers_fleet():
    # §4: Sun E4500/E10K databases, Ultra 10 / E450 / E220R / HP K & T
    # TP servers, IBM SP2 front-ends, linux boxes
    for model in ("sun-e10k", "sun-e4500", "sun-e450", "sun-e220r",
                  "sun-ultra10", "hp-kclass", "hp-tclass", "ibm-sp2",
                  "linux-x86"):
        assert model in SPEC_CATALOGUE


def test_lookup_by_name():
    s = spec("sun-e10k")
    assert s.vendor == "Sun"
    assert s.os == "solaris"
    assert s.cpus >= 8


def test_unknown_model_raises():
    with pytest.raises(KeyError):
        spec("vax-11/780")


def test_power_orders_models_sensibly():
    assert spec("sun-e10k").power > spec("sun-e4500").power
    assert spec("sun-e4500").power > spec("sun-ultra10").power


def test_specs_are_frozen():
    with pytest.raises(Exception):
        spec("sun-e450").cpus = 64
