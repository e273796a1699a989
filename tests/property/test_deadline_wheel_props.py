"""Property-based tests for the control plane's deadline wheel.

The wheel is a lazy-deletion heap with a sticky due-set; the model it
must track is trivial: a dict of key -> deadline, where a key is due
iff its *current* deadline is <= now.  Under any interleaving of
set_deadline / drop / time advances (time monotonic, as for the
watchdog), the wheel must neither lose a due deadline nor resurrect a
cancelled or rescheduled one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import DeadlineWheel

KEYS = tuple("abcdefgh")

ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(KEYS),
                  st.floats(min_value=0.0, max_value=1000.0,
                            allow_nan=False)),
        st.tuples(st.just("advance"), st.just(""),
                  st.floats(min_value=0.0, max_value=120.0,
                            allow_nan=False)),
    ),
    max_size=120)


@given(ops)
@settings(max_examples=300, deadline=None)
def test_wheel_matches_dict_model(sequence):
    wheel = DeadlineWheel()
    model = {}
    now = 0.0
    for op, key, value in sequence:
        if op == "set":
            wheel.set_deadline(key, value)
            model[key] = value
        else:
            now += value
        expected = {k for k, d in model.items() if d <= now}
        actual = set(wheel.due(now))
        # never lose a due deadline...
        assert expected <= actual, expected - actual
        # ...never resurrect a cancelled or rescheduled one
        assert actual <= expected, actual - expected
        assert wheel._deadline == model


@given(st.lists(st.tuples(st.sampled_from(KEYS),
                          st.floats(min_value=0.0, max_value=100.0,
                                    allow_nan=False)),
                min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_reschedule_rescues_due_keys(updates):
    """A key seen due and then re-armed in the future must leave the
    due-set until its new deadline passes."""
    wheel = DeadlineWheel()
    for key, deadline in updates:
        wheel.set_deadline(key, deadline)
    assert set(wheel.due(200.0)) == {k for k, _ in updates}
    for key, _ in updates:
        wheel.set_deadline(key, 500.0)
    assert wheel.due(200.0) == set()
    assert set(wheel.due(500.0)) == {k for k, _ in updates}
