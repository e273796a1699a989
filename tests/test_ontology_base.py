"""Unit tests for the flat-ASCII ontology codec."""

import pytest

from repro.ontology.base import (OntologyDoc, OntologyError, decode_list,
                                 encode_list)


def test_render_parse_roundtrip():
    doc = OntologyDoc("SLKT", 123.5)
    doc.add("host", name="db01", cpus="8")
    doc.add("application", name="ora", port="1521")
    parsed = OntologyDoc.parse(doc.render())
    assert parsed.kind == "SLKT"
    assert parsed.generated_at == 123.5
    assert parsed.records == doc.records


def test_rendered_form_is_flat_ascii():
    doc = OntologyDoc("DLSP", 0.0)
    doc.add("host", name="x")
    lines = doc.render()
    assert lines[0] == "#ONTOLOGY DLSP 1"
    assert all("\n" not in l for l in lines)
    assert "record=host" in lines
    assert "name=x" in lines


def test_record_queries():
    doc = OntologyDoc("X")
    doc.add("a", v="1")
    doc.add("b", v="2")
    doc.add("a", v="3")
    assert len(doc.of_type("a")) == 2
    assert doc.first("b")["v"] == "2"
    assert doc.first("zzz") is None


def test_bad_keys_and_values_rejected():
    doc = OntologyDoc("X")
    with pytest.raises(OntologyError):
        doc.add("r", **{"bad key": "v"})
    with pytest.raises(OntologyError):
        doc.add("r", **{"k=v": "v"})
    with pytest.raises(OntologyError):
        doc.add("r", k="line1\nline2")


def test_parse_errors():
    with pytest.raises(OntologyError):
        OntologyDoc.parse([])
    with pytest.raises(OntologyError):
        OntologyDoc.parse(["not a header"])
    with pytest.raises(OntologyError):
        OntologyDoc.parse(["#ONTOLOGY X 99", "#GENERATED 0.0"])
    with pytest.raises(OntologyError):
        OntologyDoc.parse(["#ONTOLOGY X 1"])
    with pytest.raises(OntologyError):
        OntologyDoc.parse(["#ONTOLOGY X 1", "#GENERATED zero"])
    # field outside a record
    with pytest.raises(OntologyError):
        OntologyDoc.parse(["#ONTOLOGY X 1", "#GENERATED 0.0", "",
                           "orphan=1"])
    # duplicate keys within a record
    with pytest.raises(OntologyError):
        OntologyDoc.parse(["#ONTOLOGY X 1", "#GENERATED 0.0", "",
                           "record=r", "k=1", "k=2"])


def test_comment_lines_ignored():
    doc = OntologyDoc.parse(["#ONTOLOGY X 1", "#GENERATED 5.0",
                             "# a human wrote this", "",
                             "record=r", "k=v"])
    assert doc.records == [{"record": "r", "k": "v"}]


def test_values_may_contain_equals():
    doc = OntologyDoc("X")
    doc.add("r", expr="a=b")
    parsed = OntologyDoc.parse(doc.render())
    assert parsed.records[0]["expr"] == "a=b"


def test_list_codec():
    assert decode_list(encode_list(["a", "b", "c"])) == ["a", "b", "c"]
    assert decode_list("") == []
    with pytest.raises(OntologyError):
        encode_list(["has,comma"])


def test_fs_io_roundtrip(db_host):
    doc = OntologyDoc("ISSL", 9.0)
    doc.add("entry", name="db01")
    doc.write_to(db_host.fs, "/apps/issl", now=9.0)
    back = OntologyDoc.parse(db_host.fs.read("/apps/issl"))
    assert back.records == doc.records
