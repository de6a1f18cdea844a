"""Batched simulation kernels must match the step-by-step loop exactly.

Every predictor that advertises a batched fast path (``batch_plan``,
``batch_slot_ids``, ``predict_column``) is checked here against the
generic loop (``vectorize=False``) on real workloads — same misses, same
states, same storage, bit for bit.
"""

from __future__ import annotations

import pytest

from repro.predictors.automata import AUTOMATON_SPECS, make_automaton_factory
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
from repro.predictors.static_hints import StaticHintExitPredictor
from repro.predictors.task_predictor import HeaderTaskPredictor
from repro.predictors.ttb import (
    CorrelatedTaskTargetBuffer,
    IdealCorrelatedTargetBuffer,
    TaskTargetBuffer,
)
from repro.sim.functional import (
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
    simulate_task_prediction,
)
from repro.sim.timing import TimingConfig, simulate_timing
from repro.utils.rng import DeterministicRng

_SCHEMES = (IdealGlobalPredictor, IdealPerTaskPredictor, IdealPathPredictor)
_DEPTHS = (0, 1, 3, 7)
_VOTING = ("VC2-MRU", "VC2-RANDOM", "VC3-MRU", "VC3-RANDOM")

#: Every exit predictor with a batch plan, built around an automaton.
_PLANNED = {
    "ideal-global": lambda automaton: IdealGlobalPredictor(
        3, automaton=automaton
    ),
    "ideal-per": lambda automaton: IdealPerTaskPredictor(
        3, automaton=automaton
    ),
    "ideal-path": lambda automaton: IdealPathPredictor(
        3, automaton=automaton
    ),
    "pht-path": lambda automaton: PathExitPredictor(
        DolcSpec.parse("3-4-6-8(2)"), automaton=automaton
    ),
    "pht-global": lambda automaton: GlobalExitPredictor(
        4, index_bits=10, automaton=automaton
    ),
    "pht-pertask": lambda automaton: PerTaskExitPredictor(
        4, index_bits=10, hrt_index_bits=8, automaton=automaton
    ),
}


def _assert_exit_stats_equal(workload, make_predictor):
    looped = simulate_exit_prediction(
        workload, make_predictor(), vectorize=False
    )
    batched = simulate_exit_prediction(
        workload, make_predictor(), vectorize=True
    )
    assert batched.trials == looped.trials
    assert batched.misses == looped.misses
    assert batched.multiway_trials == looped.multiway_trials
    assert batched.multiway_misses == looped.multiway_misses
    assert batched.states_touched == looped.states_touched
    assert batched.storage_bits == looped.storage_bits


class TestIdealExitKernels:
    @pytest.mark.parametrize("cls", _SCHEMES)
    @pytest.mark.parametrize("depth", _DEPTHS)
    def test_gcc(self, gcc_workload, cls, depth):
        _assert_exit_stats_equal(gcc_workload, lambda: cls(depth))

    @pytest.mark.parametrize("cls", _SCHEMES)
    def test_xlisp_deep(self, xlisp_workload, cls):
        _assert_exit_stats_equal(xlisp_workload, lambda: cls(7))

    @pytest.mark.parametrize("automaton", ["LE", "LEH-1", "LEH-2"])
    def test_automata_variants(self, gcc_workload, automaton):
        _assert_exit_stats_equal(
            gcc_workload,
            lambda: IdealPathPredictor(3, automaton=automaton),
        )

    def test_update_on_single_exit_falls_back(self, gcc_workload):
        predictor = IdealPathPredictor(2, update_on_single_exit=True)
        plan = predictor.batch_plan(
            gcc_workload.trace.task_addr, gcc_workload.trace.exit_index
        )
        assert plan is None


class TestVotingCounterReplay:
    """Voting counters replay factored, never on the per-task loop."""

    @pytest.mark.parametrize("spec", AUTOMATON_SPECS)
    @pytest.mark.parametrize("scheme", sorted(_PLANNED))
    def test_every_automaton_has_a_plan(self, gcc_workload, scheme, spec):
        predictor = _PLANNED[scheme](
            make_automaton_factory(spec, DeterministicRng(1).fork(spec))
        )
        plan = predictor.batch_plan(
            gcc_workload.trace.task_addr, gcc_workload.trace.exit_index
        )
        assert plan is not None

    @pytest.mark.parametrize("spec", _VOTING)
    @pytest.mark.parametrize("scheme", sorted(_PLANNED))
    @pytest.mark.parametrize("name", ["gcc", "xlisp"])
    def test_matches_loop(
        self, gcc_workload, xlisp_workload, name, scheme, spec
    ):
        workload = gcc_workload if name == "gcc" else xlisp_workload
        results = []
        for vectorize in (False, True):
            # Each run owns a stream forked the way figure 6 forks it;
            # the random variants must leave it in the same state.
            rng = DeterministicRng(3).fork(spec)
            predictor = _PLANNED[scheme](make_automaton_factory(spec, rng))
            stats = simulate_exit_prediction(
                workload, predictor, vectorize=vectorize
            )
            results.append((stats, rng._random.getstate()))
        assert results[0] == results[1]


class _UnbatchedCttb(CorrelatedTaskTargetBuffer):
    """A CTTB with no batched form: its owner's address side must loop."""

    batch_slot_ids = None


class TestDeclineBeforeDraw:
    """A task predictor whose address side has no batched form declines
    before its VC-RANDOM exit replay draws from the shared stream, so the
    stepped loop it falls back to starts from an unused stream."""

    @pytest.mark.parametrize(
        "simulate",
        [
            simulate_task_prediction,
            lambda workload, predictor, vectorize: simulate_timing(
                workload, predictor, TimingConfig(), vectorize=vectorize
            ),
        ],
        ids=["task", "timing"],
    )
    def test_matches_loop(self, gcc_workload, simulate):
        spec = DolcSpec.parse("7-3-4-6(2)")
        results = []
        for vectorize in (False, True):
            rng = DeterministicRng(3).fork("VC2-RANDOM")
            predictor = HeaderTaskPredictor(
                gcc_workload.compiled.program,
                PathExitPredictor(
                    spec,
                    automaton=make_automaton_factory("VC2-RANDOM", rng),
                ),
                cttb=_UnbatchedCttb(spec),
            )
            stats = simulate(gcc_workload, predictor, vectorize=vectorize)
            results.append((stats, rng._random.getstate()))
        assert results[0] == results[1]


class TestStaticHintColumn:
    def test_matches_loop(self, gcc_workload):
        trace = gcc_workload.trace
        make = lambda: StaticHintExitPredictor.profile_from_trace(trace)
        _assert_exit_stats_equal(gcc_workload, make)

    def test_empty_hints(self, gcc_workload):
        _assert_exit_stats_equal(
            gcc_workload, lambda: StaticHintExitPredictor({})
        )


class TestTargetBufferKernels:
    @pytest.mark.parametrize("depth", _DEPTHS)
    def test_ideal_cttb(self, gcc_workload, depth):
        for make in (lambda: IdealCorrelatedTargetBuffer(depth),):
            looped = simulate_indirect_target_prediction(
                gcc_workload, make(), vectorize=False
            )
            batched = simulate_indirect_target_prediction(
                gcc_workload, make(), vectorize=True
            )
            assert batched == looped

    @pytest.mark.parametrize("index_bits", [6, 11])
    def test_plain_ttb(self, xlisp_workload, index_bits):
        looped = simulate_indirect_target_prediction(
            xlisp_workload,
            TaskTargetBuffer(index_bits=index_bits),
            vectorize=False,
        )
        batched = simulate_indirect_target_prediction(
            xlisp_workload,
            TaskTargetBuffer(index_bits=index_bits),
            vectorize=True,
        )
        assert batched == looped
