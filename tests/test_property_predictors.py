"""Property-based tests on predictor data structures.

Hypothesis strategies generate valid D-O-L-C(F) specifications and outcome
streams; the tests check invariants that must hold for every instance,
plus reference-model equivalence for the LEH automaton and the batched
voting-counter replay.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.automata import (
    LastExitHysteresis,
    make_automaton_factory,
)
from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.sim.functional import simulate_exit_prediction
from repro.utils.rng import DeterministicRng

_ADDRESSES = st.integers(min_value=0, max_value=(1 << 32) - 4).map(
    lambda a: a & ~0x3
)


@st.composite
def dolc_specs(draw):
    """Any valid spec with a final index of at most 16 bits."""
    depth = draw(st.integers(min_value=0, max_value=8))
    folds = draw(st.integers(min_value=1, max_value=3))
    index_bits = draw(st.integers(min_value=4, max_value=16))
    total = index_bits * folds
    if depth == 0:
        return DolcSpec(
            depth=0, older_bits=0, last_bits=0,
            current_bits=total, folds=folds,
        )
    if depth == 1:
        last = draw(st.integers(min_value=1, max_value=total - 1))
        return DolcSpec(
            depth=1, older_bits=0, last_bits=last,
            current_bits=total - last, folds=folds,
        )
    # depth >= 2: need (depth-1)*older + last + current == total with
    # older >= 0, last >= 1, current >= 1.
    max_older = (total - 2) // (depth - 1)
    older = draw(st.integers(min_value=0, max_value=max(0, max_older)))
    remaining = total - (depth - 1) * older
    last = draw(st.integers(min_value=1, max_value=remaining - 1))
    return DolcSpec(
        depth=depth, older_bits=older, last_bits=last,
        current_bits=remaining - last, folds=folds,
    )


class TestDolcSpecProperties:
    @settings(max_examples=80)
    @given(dolc_specs(), _ADDRESSES, st.lists(_ADDRESSES, max_size=12))
    def test_index_always_in_range(self, spec, addr, path):
        assert 0 <= spec.index(addr, path) < spec.table_entries

    @settings(max_examples=50)
    @given(dolc_specs())
    def test_parse_round_trips_str(self, spec):
        assert DolcSpec.parse(str(spec)) == spec

    @settings(max_examples=50)
    @given(dolc_specs(), _ADDRESSES, st.lists(_ADDRESSES, max_size=12))
    def test_index_uses_only_last_depth_tasks(self, spec, addr, path):
        prefixed = [0xDEAD_BEE0, 0xFEED_F000] + path
        if spec.depth <= len(path):
            assert spec.index(addr, path) == spec.index(addr, prefixed)

    @settings(max_examples=50)
    @given(dolc_specs())
    def test_intermediate_width_formula(self, spec):
        if spec.depth == 0:
            expected = spec.current_bits
        else:
            expected = (
                (spec.depth - 1) * spec.older_bits
                + spec.last_bits
                + spec.current_bits
            )
        assert spec.intermediate_bits == expected
        assert spec.intermediate_bits % spec.folds == 0


def _leh_reference(outcomes, bits):
    """Pure-python reference for the LEH automaton's final state."""
    exit_value, confidence = 0, 0
    maximum = (1 << bits) - 1
    for actual in outcomes:
        if actual == exit_value:
            confidence = min(maximum, confidence + 1)
        elif confidence > 0:
            confidence -= 1
        else:
            exit_value, confidence = actual, 0
    return exit_value


class TestLehReferenceModel:
    @settings(max_examples=100)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=60),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_reference(self, outcomes, bits):
        automaton = LastExitHysteresis(bits)
        for actual in outcomes:
            automaton.update(actual)
        assert automaton.predict() == _leh_reference(outcomes, bits)


class TestPathPredictorProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                _ADDRESSES,
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_predictions_always_legal(self, steps):
        predictor = PathExitPredictor(DolcSpec.parse("3-6-8-8(2)"))
        for addr, n_exits in steps:
            prediction = predictor.predict(addr, n_exits)
            assert 0 <= prediction < n_exits
            # Feed back an arbitrary legal outcome.
            predictor.update(addr, n_exits, (addr >> 2) % n_exits)

    @settings(max_examples=30)
    @given(st.lists(_ADDRESSES, min_size=1, max_size=40))
    def test_states_bounded_by_table(self, addrs):
        predictor = PathExitPredictor(DolcSpec.parse("2-3-3-5(1)"))
        for addr in addrs:
            predictor.predict(addr, 3)
            predictor.update(addr, 3, 1)
        assert predictor.states_touched() <= predictor.spec.table_entries

class _TraceWorkload:
    """The slice of a workload :func:`simulate_exit_prediction` reads."""

    def __init__(self, task_addrs, exits, n_exits_of):
        self.trace = SimpleNamespace(
            task_addr=np.array(task_addrs, dtype=np.uint32),
            exit_index=np.array(exits, dtype=np.uint8),
        )
        self._n_exits_of = n_exits_of

    def exit_counts(self):
        return self._n_exits_of


@st.composite
def exit_traces(draw):
    """A short legal trace over a few tasks with 1–4 exits each.

    Few tasks and few distinct exits make voting-counter ties common.
    """
    addrs = draw(st.lists(_ADDRESSES, min_size=1, max_size=5, unique=True))
    n_exits_of = {
        addr: draw(st.integers(min_value=1, max_value=4)) for addr in addrs
    }
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(addrs), st.integers(0, 3)),
            max_size=80,
        )
    )
    task_addrs = [addr for addr, _ in steps]
    exits = [choice % n_exits_of[addr] for addr, choice in steps]
    return _TraceWorkload(task_addrs, exits, n_exits_of)


_VOTING_SPECS = st.sampled_from(
    ["VC2-MRU", "VC2-RANDOM", "VC3-MRU", "VC3-RANDOM"]
)


@st.composite
def voting_predictors(draw):
    """``(make, spec)``: builds one exit predictor around an automaton."""
    spec = draw(_VOTING_SPECS)
    depth = draw(st.integers(min_value=0, max_value=3))
    kind = draw(
        st.sampled_from(
            ["ideal-global", "ideal-per", "ideal-path",
             "path", "global", "pertask"]
        )
    )
    dolc = draw(dolc_specs())
    index_bits = draw(st.integers(min_value=2, max_value=8))

    def make(automaton):
        if kind == "ideal-global":
            return IdealGlobalPredictor(depth, automaton=automaton)
        if kind == "ideal-per":
            return IdealPerTaskPredictor(depth, automaton=automaton)
        if kind == "ideal-path":
            return IdealPathPredictor(depth, automaton=automaton)
        if kind == "path":
            return PathExitPredictor(dolc, automaton=automaton)
        if kind == "global":
            return GlobalExitPredictor(
                depth, index_bits=index_bits, automaton=automaton
            )
        return PerTaskExitPredictor(
            depth, index_bits=index_bits, hrt_index_bits=2,
            automaton=automaton,
        )

    return make, spec


class TestVotingCounterReplay:
    @settings(max_examples=150, deadline=None)
    @given(exit_traces(), voting_predictors(), st.integers(0, 1 << 20))
    def test_batched_matches_loop(self, workload, predictor, seed):
        make, spec = predictor
        outcomes = []
        for vectorize in (False, True):
            rng = DeterministicRng(seed).fork(spec)
            stats = simulate_exit_prediction(
                workload,
                make(make_automaton_factory(spec, rng)),
                vectorize=vectorize,
            )
            # The random tie-break must draw exactly what the loop draws.
            outcomes.append((stats, rng._random.getstate()))
        assert outcomes[0] == outcomes[1]
