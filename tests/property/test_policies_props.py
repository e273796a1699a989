"""Property-based tests for flag parsing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flags import FLAG_STATUSES, FlagStore


# ----------------------------------------------------------- flag names --

times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@given(st.sampled_from(FLAG_STATUSES), times)
@settings(max_examples=200, deadline=None)
def test_flag_filename_roundtrip(status, t):
    from repro.core.flags import _flag_name
    name = _flag_name(status, round(t, 1), 0)
    parsed = FlagStore._parse_name(f"/logs/x/{name}")
    assert parsed is not None
    assert parsed[0] == status
    assert abs(parsed[1] - round(t, 1)) < 1e-6


@given(st.text(max_size=30))
@settings(max_examples=200, deadline=None)
def test_flag_parser_never_crashes_on_garbage(name):
    # arbitrary filenames either parse or return None, never raise
    result = FlagStore._parse_name(f"/logs/x/{name}")
    assert result is None or result[0] in FLAG_STATUSES
