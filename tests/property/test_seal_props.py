"""Property: canonical JSON composes, so :func:`repro.persist.core.seal`
may encode a document member by member, once, and hand it out in
pieces as it goes.

For any strictly-JSON document, the pieces ``seal`` writes join to
the canonical rendering of the document with its ``state_hash`` member
in place -- byte for byte what encoding the sealed dict from scratch
gives -- and the hash it records is ``sha256(canonical_json(doc))`` of
the unsealed document.  :func:`state_hash` hashes the same pieces, so
it is checked against the same from-scratch oracle here, never the
other way round.
"""

import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist import canonical_json, state_hash
from repro.persist.checkpoint import _read
from repro.persist.core import compose, discard, seal

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
                        max_size=4),
        # json sorts int keys as numbers: 2 before 10, unlike "10" < "2"
        st.dictionaries(st.integers(-20, 20), inner, max_size=4)),
    max_leaves=12)
# every level a str-keyed dict: the composed levels, and one below
nested = st.dictionaries(keys, st.dictionaries(keys, st.dictionaries(
    keys, st.dictionaries(keys, values, max_size=3), max_size=3),
    max_size=3), max_size=4)
documents = st.one_of(st.dictionaries(keys, values, max_size=8), nested)


def _oracle(doc: dict) -> str:
    """The from-scratch definition of a document's hash."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _sealed(doc: dict, encoded=None) -> list:
    """``seal``'s pieces, each marked with whether the hash was known
    when it was written."""
    written = []
    seal(doc, encoded,
         write=lambda piece: written.append((piece, "state_hash" in doc)))
    return written


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_sealed_pieces_are_the_canonical_rendering(doc):
    """... and they stream: every piece before the ``state_hash``
    member is written before the hash is known, so only the members
    that sort after it are held."""
    unsealed = dict(doc)
    want_hash = _oracle(unsealed)
    written = _sealed(doc)
    assert doc == {**unsealed, "state_hash": want_hash}
    text = canonical_json(doc)
    assert "".join(piece for piece, _known in written) == text
    early = "".join(piece for piece, known in written if not known)
    assert text.startswith(early)
    assert text[len(early):].lstrip("{,").startswith('"state_hash":')


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_state_hash_is_the_hash_of_the_canonical_rendering(doc):
    assert state_hash(doc) == _oracle(doc)


def test_an_empty_document_seals_to_its_hash_alone():
    doc = {}
    written = _sealed(doc)
    assert doc == {"state_hash": _oracle({})}
    assert "".join(piece for piece, _known in written) == canonical_json(doc)
    assert state_hash({}) == _oracle({})


@settings(max_examples=100, deadline=None)
@given(doc=documents.filter(bool), data=st.data())
def test_a_member_the_caller_already_encoded_is_taken_as_is(doc, data):
    """The federation's use: a member of documents, each sealed on the
    way through and composed by the caller, seals to the same bytes and
    the same hash as the finished member encoded from scratch."""
    key = data.draw(st.sampled_from(sorted(doc)))
    subs = data.draw(st.dictionaries(keys, documents, max_size=3))
    doc[key] = {}

    def sub(name, out):
        doc[key][name] = dict(subs[name])
        seal(doc[key][name], write=out)
    member = functools.partial(compose, (
        (name, functools.partial(sub, name)) for name in sorted(subs)))
    written = _sealed(doc, {key: member})

    want = {name: {**value, "state_hash": _oracle(value)}
            for name, value in subs.items()}
    assert doc[key] == want
    assert doc["state_hash"] == _oracle(
        {k: v for k, v in doc.items() if k != "state_hash"})
    assert "".join(piece for piece, _known in written) == canonical_json(doc)


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
        seal(doc, write=discard)
    assert "state_hash" not in doc
    with pytest.raises(ValueError, match="Out of range float"):
        state_hash(doc)


def test_sealing_twice_is_refused():
    doc = {"a": 1}
    seal(doc, write=discard)
    with pytest.raises(ValueError, match="already sealed"):
        seal(doc, write=discard)


# -- reading a file back -------------------------------------------------------


class _Trickle:
    """A text file that hands out a few characters per read, so every
    value a reader parses straddles its buffer's end."""

    def __init__(self, text: str, sizes):
        self.text, self.sizes, self.at = text, sizes, 0

    def read(self, n: int) -> str:
        out = self.text[self.at:self.at + min(n, next(self.sizes))]
        self.at += len(out)
        return out


def _loads(text: str):
    """The from-scratch reading: ``json.loads`` refusing non-finite
    literals, as ``CheckpointManager.load`` does."""
    def refuse(name):
        raise ValueError(name)
    return json.loads(text, parse_constant=refuse)


texts = st.one_of(
    documents.map(canonical_json),
    st.tuples(documents, st.sampled_from([None, 0, 2])).map(
        lambda d: json.dumps(d[0], indent=d[1])),
    st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)).map(
        json.dumps))


@settings(max_examples=300, deadline=None)
@given(text=texts, data=st.data())
def test_a_file_is_read_back_piece_by_piece_as_json_reads_it(text, data):
    """``CheckpointManager.load`` reads a file member by member, never
    its whole text: for any JSON text, and any cut of it, it reads the
    document ``json.loads`` reads, and refuses what that refuses."""
    cut = data.draw(st.integers(0, len(text)))
    text = data.draw(st.sampled_from([text, text[:cut], text + " x"]))
    sizes = itertools.cycle(data.draw(st.lists(st.integers(1, 9),
                                               min_size=1)))
    try:
        want = _loads(text)
    except ValueError:
        with pytest.raises(ValueError):
            _read(_Trickle(text, sizes))
        return
    assert _read(_Trickle(text, sizes)) == want
