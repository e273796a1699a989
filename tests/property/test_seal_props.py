"""Property: canonical JSON composes, so :func:`repro.persist.core.seal`
may encode a document member by member, once.

For any strictly-JSON document, the pieces ``seal`` returns join to
the canonical rendering of the document with its ``state_hash`` member
in place -- byte for byte what encoding the sealed dict from scratch
gives -- and the hash it records is :func:`state_hash` of the unsealed
document.  ``state_hash`` stays the from-scratch definition; ``seal``
is checked against it here, never the other way round.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist import canonical_json, state_hash
from repro.persist.core import compose, seal

# keys on both sides of "state_hash" in sort order, non-ASCII ones, ones
# json must escape, and the name itself one level down
keys = st.one_of(
    st.sampled_from(["a", "format", "sites", "state_hasg", "state_hash_",
                     "state_hashé", "suites", "tracer", "z", "",
                     'quo"te', "back\\slash", "über", "世界",
                     "tab\there", "\U0001f600"]),
    st.text(max_size=6))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8))
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(keys, st.just("state_hash")), inner,
                        max_size=4)),
    max_leaves=12)
documents = st.dictionaries(keys, values, max_size=8)


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_sealed_pieces_are_the_canonical_rendering(doc):
    unsealed = dict(doc)
    want_hash = state_hash(unsealed)
    pieces = seal(doc)
    assert doc == {**unsealed, "state_hash": want_hash}
    assert "".join(pieces) == canonical_json(doc)


def test_an_empty_document_seals_to_its_hash_alone():
    doc = {}
    assert "".join(seal(doc)) == canonical_json(
        {"state_hash": state_hash({})})
    assert doc == {"state_hash": state_hash({})}


@settings(max_examples=100, deadline=None)
@given(doc=documents.filter(bool), data=st.data())
def test_a_member_the_caller_already_encoded_is_taken_as_is(doc, data):
    """The federation's use: a member handed over as pieces of its
    rendering (its own members composed) seals to the same bytes."""
    key = data.draw(st.sampled_from(sorted(doc)))
    nested = data.draw(st.dictionaries(keys, values, max_size=4))
    doc[key] = nested
    plain = dict(doc)
    text = list(compose((name, [canonical_json(nested[name])])
                        for name in sorted(nested)))
    assert "".join(text) == canonical_json(nested)
    assert "".join(seal(doc, {key: text})) == "".join(seal(plain))
    assert doc["state_hash"] == plain["state_hash"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@given(doc=documents, depth=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_a_non_finite_float_anywhere_trips_at_seal_time(doc, depth, bad):
    """The ``allow_nan=False`` tripwire survives the member-wise walk."""
    value = bad
    for level in range(depth):
        value = [value] if level % 2 else {"deep": value}
    doc["leak"] = value
    with pytest.raises(ValueError, match="Out of range float"):
        seal(doc)
    assert "state_hash" not in doc


def test_sealing_twice_is_refused():
    doc = {"a": 1}
    seal(doc)
    with pytest.raises(ValueError, match="already sealed"):
        seal(doc)
