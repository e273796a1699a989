"""Property-based round-trip tests for the flat-ASCII ontology codec,
and for the live lists' one-pass renderers against it."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ontology.base import (OntologyDoc, OntologyError, decode_list,
                                 encode_list)
from repro.ontology.dgspl import Dgspl, GlobalServiceEntry
from repro.ontology.dlsp import Dlsp, ServiceStatus
from tests.test_ontology_lists import to_doc

# keys: shell-friendly identifiers
keys = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True).filter(
    lambda k: k != "record")
# values: printable single-line ASCII without leading '#' ambiguity
values = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=40)
record_types = st.from_regex(r"[a-z][a-z0-9_-]{0,10}", fullmatch=True)


@st.composite
def documents(draw):
    doc = OntologyDoc(draw(st.sampled_from(["ISSL", "SLKT", "DLSP",
                                            "DGSPL"])),
                      draw(st.floats(min_value=0, max_value=1e9,
                                     allow_nan=False)))
    for _ in range(draw(st.integers(0, 6))):
        fields = draw(st.dictionaries(keys, values, max_size=6))
        doc.add(draw(record_types), **fields)
    return doc


@given(documents())
@settings(max_examples=200, deadline=None)
def test_parse_render_roundtrip(doc):
    again = OntologyDoc.parse(doc.render())
    assert again.kind == doc.kind
    assert again.generated_at == doc.generated_at
    assert again.records == doc.records


@given(documents())
@settings(max_examples=100, deadline=None)
def test_render_is_stable(doc):
    """render(parse(render(x))) == render(x)."""
    once = doc.render()
    twice = OntologyDoc.parse(once).render()
    assert once == twice


@given(st.lists(st.from_regex(r"[a-zA-Z0-9_./:-]{1,20}",
                              fullmatch=True), max_size=10))
@settings(max_examples=200, deadline=None)
def test_list_codec_roundtrip(items):
    assert decode_list(encode_list(items)) == items


def test_list_codec_rejects_unrepresentable():
    import pytest
    from repro.ontology.base import OntologyError
    for bad in ([""], ["a,b"], ["a\nb"]):
        with pytest.raises(OntologyError):
            encode_list(bad)


@given(documents())
@settings(max_examples=50, deadline=None)
def test_rendered_lines_are_single_line_ascii(doc):
    for line in doc.render():
        assert "\n" not in line and "\r" not in line


# -- the live lists: one-pass render == the record-by-record oracle ----------

printable = st.characters(min_codepoint=32, max_codepoint=126)
names = st.one_of(st.sampled_from(["db 01", "k=v", " = ", ""]),
                  st.text(alphabet=printable, max_size=12))
reals = st.one_of(st.sampled_from([-0.0, 1e-300, 0.1 + 0.2, 2.0 ** 64]),
                  st.floats(allow_nan=False, allow_infinity=False))
whole = st.one_of(st.sampled_from([0, -1, 2 ** 63, 10 ** 30]), st.integers())
services = st.builds(ServiceStatus, name=names, app_type=names,
                     version=names, state=names, port=whole,
                     healthy=st.booleans(), response_ms=reals)
dlsps = st.builds(Dlsp, hostname=names, generated_at=reals, model=names,
                  os=names, cpus=whole, ram_mb=whole, load_avg=reals,
                  cpu_util=reals, free_mem_mb=reals, users=whole,
                  site=names, location=names, up=st.booleans(),
                  services=st.lists(services, max_size=3))
entries = st.builds(GlobalServiceEntry, server=names, server_type=names,
                    os=names, ram_mb=whole, cpus=whole, app_name=names,
                    app_type=names, app_version=names, current_load=reals,
                    users=whole, location=names, site=names)


@st.composite
def dgspls(draw):
    out = Dgspl(draw(reals))
    out.entries = draw(st.lists(entries, max_size=3))
    return out


def _free_text(record) -> list:
    return [f.name for f in dataclasses.fields(record)
            if f.type in ("str", str)]


@st.composite
def broken(draw):
    """A DLSP or DGSPL with a line break in one free-text field."""
    x = draw(st.one_of(dlsps, dgspls()))
    brk = draw(names) + draw(st.sampled_from(["\n", "\r"])) + draw(names)
    records = [x] if isinstance(x, Dlsp) else []
    records += x.services if isinstance(x, Dlsp) else x.entries
    if not records:
        return x, False
    i = draw(st.integers(0, len(records) - 1))
    field = draw(st.sampled_from(_free_text(records[i])))
    fixed = dataclasses.replace(records[i], **{field: brk})
    if isinstance(x, Dgspl):
        x.entries[i] = fixed
    elif i == 0:
        x = fixed
    else:
        x.services[i - 1] = fixed
    return x, True


@given(dlsps)
@settings(max_examples=40, deadline=None)
def test_dlsp_renders_as_the_oracle_and_round_trips(dlsp):
    lines = dlsp.render()
    assert lines == to_doc(dlsp).render()
    assert Dlsp.from_doc(OntologyDoc.parse(lines)) == dlsp


@given(dgspls())
@settings(max_examples=40, deadline=None)
def test_dgspl_renders_as_the_oracle_and_round_trips(dgspl):
    lines = dgspl.render()
    assert lines == to_doc(dgspl).render()
    back = Dgspl.from_doc(OntologyDoc.parse(lines))
    assert (back.generated_at, back.entries) == \
        (dgspl.generated_at, dgspl.entries)


@given(broken())
@settings(max_examples=40, deadline=None)
def test_a_line_break_in_free_text_is_refused_by_both_renderers(case):
    x, is_broken = case
    if not is_broken:
        assert x.render() == to_doc(x).render()
        return
    with pytest.raises(OntologyError):
        x.render()
    with pytest.raises(OntologyError):
        to_doc(x).render()
