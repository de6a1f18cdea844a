"""Tests for the tournament predictor and confidence estimation."""

import pytest

from repro.errors import PredictorConfigError
from repro.predictors.automata import make_automaton_factory
from repro.predictors.confidence import (
    ResettingConfidenceEstimator,
    simulate_confidence,
)
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.hybrid import TournamentExitPredictor
from repro.predictors.ideal import IdealPathPredictor, IdealPerTaskPredictor
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import HeaderTaskPredictor
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.functional import simulate_exit_prediction
from repro.sim.timing import simulate_timing
from repro.utils.rng import DeterministicRng

_SPEC = DolcSpec.parse("4-5-6-7(2)")


class _AlwaysPredicts:
    """Stub exit predictor returning a fixed exit."""

    def __init__(self, exit_index):
        self._exit = exit_index
        self.updates = 0

    def predict(self, task_addr, n_exits):
        return self._exit

    def update(self, task_addr, n_exits, actual_exit):
        self.updates += 1

    def states_touched(self):
        return 1

    def storage_bits(self):
        return 8


class TestTournamentExitPredictor:
    def test_chooser_validation(self):
        with pytest.raises(PredictorConfigError):
            TournamentExitPredictor(
                _AlwaysPredicts(0), _AlwaysPredicts(1),
                chooser_index_bits=0,
            )

    def test_initially_prefers_first(self):
        hybrid = TournamentExitPredictor(
            _AlwaysPredicts(0), _AlwaysPredicts(1)
        )
        assert hybrid.predict(0x100, 2) == 0

    def test_learns_to_prefer_correct_component(self):
        hybrid = TournamentExitPredictor(
            _AlwaysPredicts(0), _AlwaysPredicts(1)
        )
        # Component 2 is always right; after a few disagreements the
        # chooser must flip to it.
        for _ in range(4):
            hybrid.predict(0x100, 2)
            hybrid.update(0x100, 2, actual_exit=1)
        assert hybrid.predict(0x100, 2) == 1

    def test_chooser_is_per_task(self):
        hybrid = TournamentExitPredictor(
            _AlwaysPredicts(0), _AlwaysPredicts(1)
        )
        for _ in range(4):
            hybrid.predict(0x100, 2)
            hybrid.update(0x100, 2, actual_exit=1)
        # Task 0x200 was never trained: still prefers the first component.
        assert hybrid.predict(0x204, 2) == 0

    def test_both_components_trained(self):
        first, second = _AlwaysPredicts(0), _AlwaysPredicts(1)
        hybrid = TournamentExitPredictor(first, second)
        hybrid.predict(0x100, 2)
        hybrid.update(0x100, 2, 0)
        assert first.updates == 1
        assert second.updates == 1

    def test_storage_sums_components_and_chooser(self):
        hybrid = TournamentExitPredictor(
            _AlwaysPredicts(0), _AlwaysPredicts(1), chooser_index_bits=4
        )
        assert hybrid.storage_bits() == 8 + 8 + 16 * 2

    def test_matches_better_component_on_workloads(
        self, gcc_workload, sc_workload
    ):
        """The tournament must not lose to its better component by more
        than a whisker on either a PATH-favouring or PER-favouring load."""
        for workload in (gcc_workload, sc_workload):
            path = simulate_exit_prediction(
                workload, IdealPathPredictor(4)
            ).miss_rate
            per = simulate_exit_prediction(
                workload, IdealPerTaskPredictor(4)
            ).miss_rate
            hybrid = simulate_exit_prediction(
                workload,
                TournamentExitPredictor(
                    IdealPathPredictor(4), IdealPerTaskPredictor(4)
                ),
            ).miss_rate
            assert hybrid <= min(path, per) + 0.01


class TestResettingConfidenceEstimator:
    def test_validation(self):
        with pytest.raises(PredictorConfigError):
            ResettingConfidenceEstimator(_SPEC, threshold=0)
        with pytest.raises(PredictorConfigError):
            ResettingConfidenceEstimator(_SPEC, threshold=8, counter_max=4)

    def test_cold_entry_is_low_confidence(self):
        estimator = ResettingConfidenceEstimator(_SPEC, threshold=2)
        assert not estimator.is_high_confidence(0x100)

    def test_consecutive_correct_builds_confidence(self):
        estimator = ResettingConfidenceEstimator(
            DolcSpec.parse("0-0-0-8(1)"), threshold=3
        )
        for _ in range(3):
            estimator.update(0x100, correct=True)
        assert estimator.is_high_confidence(0x100)

    def test_single_miss_resets(self):
        estimator = ResettingConfidenceEstimator(
            DolcSpec.parse("0-0-0-8(1)"), threshold=2
        )
        for _ in range(5):
            estimator.update(0x100, correct=True)
        estimator.update(0x100, correct=False)
        assert not estimator.is_high_confidence(0x100)

    def test_counter_saturates(self):
        estimator = ResettingConfidenceEstimator(
            DolcSpec.parse("0-0-0-8(1)"), threshold=2, counter_max=3
        )
        for _ in range(100):
            estimator.update(0x100, correct=True)
        assert estimator.is_high_confidence(0x100)

    def test_storage_accounting(self):
        estimator = ResettingConfidenceEstimator(
            DolcSpec.parse("0-0-0-8(1)"), threshold=4, counter_max=15
        )
        assert estimator.storage_bits() == 256 * 4


class TestSimulateConfidence:
    def test_metrics_consistent(self, compress_workload):
        stats = simulate_confidence(
            compress_workload,
            PathExitPredictor(_SPEC),
            ResettingConfidenceEstimator(_SPEC, threshold=4),
        )
        assert stats.trials == len(compress_workload.trace)
        assert stats.high_confidence + stats.low_confidence == stats.trials
        assert 0.0 <= stats.coverage <= 1.0
        assert stats.high_correct <= stats.high_confidence

    def test_high_confidence_beats_overall_accuracy(self, gcc_workload):
        """The whole point: flagged predictions are more accurate than the
        stream at large."""
        predictor_stats = simulate_exit_prediction(
            gcc_workload, PathExitPredictor(_SPEC)
        )
        confidence_stats = simulate_confidence(
            gcc_workload,
            PathExitPredictor(_SPEC),
            ResettingConfidenceEstimator(_SPEC, threshold=4),
        )
        overall_accuracy = 1.0 - predictor_stats.miss_rate
        assert (
            confidence_stats.high_confidence_accuracy > overall_accuracy
        )

    def test_pvn_beats_base_miss_rate(self, gcc_workload):
        """Low confidence must concentrate misses: PVN > base miss rate."""
        predictor_stats = simulate_exit_prediction(
            gcc_workload, PathExitPredictor(_SPEC)
        )
        confidence_stats = simulate_confidence(
            gcc_workload,
            PathExitPredictor(_SPEC),
            ResettingConfidenceEstimator(_SPEC, threshold=4),
        )
        assert confidence_stats.pvn > predictor_stats.miss_rate

    def test_higher_threshold_raises_accuracy_lowers_coverage(
        self, gcc_workload
    ):
        def run(threshold):
            return simulate_confidence(
                gcc_workload,
                PathExitPredictor(_SPEC),
                ResettingConfidenceEstimator(_SPEC, threshold=threshold),
            )

        low = run(1)
        high = run(8)
        assert high.coverage < low.coverage
        assert (
            high.high_confidence_accuracy
            >= low.high_confidence_accuracy - 0.002
        )


class TestGateKeepsTieBreakStream:
    """A gated batched run draws the VC-RANDOM ties the loop draws.

    A gate that declines batching *after* the exit replay has drawn its
    ties leaves the stepped fallback an advanced stream. Wide counters
    (``counter_max=64``, past the FSM scan's state cap) once did that;
    now the batched gate is total, and a gate with no batched form
    declines before the replay.
    """

    _GATE = "6-5-8-9(3)"

    def _gate(self):
        return ResettingConfidenceEstimator(
            DolcSpec.parse(self._GATE), threshold=4, counter_max=64
        )

    def test_confidence_run_matches_loop(self, gcc_workload):
        outcomes = []
        for vectorize in (False, True):
            rng = DeterministicRng(0).fork("vc-random")
            stats = simulate_confidence(
                gcc_workload,
                IdealPathPredictor(
                    4, make_automaton_factory("VC2-RANDOM", rng)
                ),
                self._gate(),
                vectorize=vectorize,
            )
            outcomes.append((stats, rng._random.getstate()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("stepped_only", [False, True])
    def test_gated_timing_matches_loop(self, gcc_workload, stepped_only):
        outcomes = []
        for vectorize in (False, True):
            rng = DeterministicRng(0).fork("vc-random")
            predictor = HeaderTaskPredictor(
                program=gcc_workload.compiled.program,
                exit_predictor=PathExitPredictor(
                    DolcSpec.parse(self._GATE),
                    make_automaton_factory("VC2-RANDOM", rng),
                ),
                cttb=CorrelatedTaskTargetBuffer(
                    DolcSpec.parse("5-5-6-7(3)")
                ),
                ras=ReturnAddressStack(depth=32),
            )
            gate = self._gate()
            if stepped_only:
                # A duck-typed gate with no batched form: the run must
                # decline before the exit replay draws any ties.
                gate = _SteppedGate(gate)
            result = simulate_timing(
                gcc_workload,
                predictor,
                confidence_gate=gate,
                vectorize=vectorize,
            )
            outcomes.append((result, rng._random.getstate()))
        assert outcomes[0] == outcomes[1]


class _SteppedGate:
    """A confidence gate offering only the stepped interface."""

    def __init__(self, inner):
        self._inner = inner

    def is_high_confidence(self, task_addr):
        return self._inner.is_high_confidence(task_addr)

    def update(self, task_addr, correct):
        self._inner.update(task_addr, correct)
