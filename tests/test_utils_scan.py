"""The segmented FSM scan against the stepped loop it replaces.

:func:`segmented_fsm_scan`'s docstring states its contract as a loop
over one dict of entry states; the property below runs that loop on raw
columns — random transition tables, not only tabulated automata — long
enough to cover many chunks. The scan cuts ``n`` sorted steps into
chunks of ``int(sqrt(n / 8))`` steps, so lengths are also drawn at exact
chunk multiples and one step either side, where the last chunk is full,
one step short, or a single step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.scan import segmented_fsm_scan, sorted_fsm_scan

_MAX_STEPS = 30_000


def stepped_fsm(group_ids, inputs, transitions, initial_states=None):
    """The loop of :func:`segmented_fsm_scan`'s docstring."""
    rows = transitions.tolist()
    initial = None if initial_states is None else initial_states.tolist()
    table: dict[int, int] = {}
    states = []
    for group, value in zip(group_ids.tolist(), inputs.tolist()):
        if group in table:
            state = table[group]
        else:
            state = 0 if initial is None else initial[group]
        states.append(state)
        table[group] = rows[state][value]
    return np.array(states, dtype=np.int64)


@st.composite
def chunk_boundary_lengths(draw):
    """A length whose last chunk is full, one step short or one step."""
    chunk = draw(st.integers(min_value=1, max_value=61))
    # Every length in [8 c^2, 8 (c + 1)^2) is cut into chunks of c.
    chunks = draw(
        st.integers(min_value=8 * chunk + 1, max_value=8 * chunk + 15)
    )
    n = chunk * chunks + draw(st.sampled_from((-1, 0, 1)))
    return min(n, _MAX_STEPS)


@st.composite
def fsm_columns(draw):
    """Raw scan inputs: groups, inputs, a transition table and maybe
    initial states, built from a drawn seed."""
    n = draw(
        st.one_of(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=_MAX_STEPS),
            st.integers(min_value=_MAX_STEPS // 3, max_value=_MAX_STEPS),
            chunk_boundary_lengths(),
        )
    )
    n_states = draw(st.integers(min_value=1, max_value=64))
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    # Few groups give long segments; n groups make every step a start.
    grouping = draw(st.sampled_from(("few", "some", "every-step")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if grouping == "every-step":
        group_ids = rng.permutation(n)
        n_groups = n
    else:
        n_groups = (
            draw(st.integers(1, 4))
            if grouping == "few"
            else max(1, n // draw(st.integers(2, 50)))
        )
        group_ids = rng.integers(0, n_groups, n)
    inputs = rng.integers(0, n_inputs, n)
    transitions = rng.integers(0, n_states, (n_states, n_inputs)).astype(
        np.int8
    )
    initial_states = None
    if draw(st.booleans()):
        initial_states = rng.integers(0, n_states, max(n_groups, 1))
    return group_ids, inputs, transitions, initial_states


class TestSegmentedFsmScan:
    @settings(max_examples=120, deadline=None)
    @given(fsm_columns())
    def test_equals_the_stepped_loop(self, columns):
        group_ids, inputs, transitions, initial_states = columns
        scanned = segmented_fsm_scan(
            group_ids, inputs, transitions, initial_states=initial_states
        )
        expected = stepped_fsm(group_ids, inputs, transitions, initial_states)
        assert scanned.dtype == np.int64
        assert scanned.tolist() == expected.tolist()


class TestSortedFsmScan:
    def test_rejects_a_first_step_that_opens_no_segment(self):
        # Nothing defines the state before step 0 unless it opens a
        # segment, so such input is rejected instead of read as garbage.
        transitions = np.array([[1, 0], [0, 1]], dtype=np.int8)
        starts = np.array([False, False, True, False])
        with pytest.raises(ValueError, match="starts\\[0\\]"):
            sorted_fsm_scan(starts, np.zeros(4, dtype=np.int64), transitions)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_rejects_an_input_outside_the_table(self, bad):
        # Step codes are offsets into the step table, so an input past
        # its columns would silently read a pin row instead.
        transitions = np.array([[1, 0], [0, 1]], dtype=np.int8)
        starts = np.array([True, False])
        with pytest.raises(ValueError, match="inputs in 0..1"):
            sorted_fsm_scan(starts, np.array([bad, 0]), transitions)
        with pytest.raises(ValueError, match="inputs in 0..1"):
            sorted_fsm_scan(starts, np.array([0, bad]), transitions)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_rejects_a_start_state_outside_the_table(self, bad):
        transitions = np.array([[1, 0], [0, 1]], dtype=np.int8)
        starts = np.array([True, False, True])
        with pytest.raises(ValueError, match="start_states in 0..1"):
            sorted_fsm_scan(
                starts, np.zeros(3, dtype=np.int8), transitions,
                np.array([0, bad]),
            )

    def test_empty_input_scans_to_nothing(self):
        transitions = np.zeros((1, 1), dtype=np.int8)
        states = sorted_fsm_scan(
            np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64), transitions
        )
        assert states.tolist() == []
