"""Tests for profile-guided static hint prediction."""

import pytest

from repro.errors import PredictorConfigError
from repro.predictors.static_hints import StaticHintExitPredictor
from repro.sim.functional import simulate_exit_prediction


class TestStaticHintExitPredictor:
    def test_predicts_hinted_exit(self):
        predictor = StaticHintExitPredictor({0x100: 2})
        assert predictor.predict(0x100, 4) == 2

    def test_unhinted_task_defaults_to_zero(self):
        predictor = StaticHintExitPredictor({})
        assert predictor.predict(0x999, 3) == 0

    def test_hint_clamped_to_n_exits(self):
        predictor = StaticHintExitPredictor({0x100: 3})
        assert predictor.predict(0x100, 2) == 1

    def test_update_never_adapts(self):
        predictor = StaticHintExitPredictor({0x100: 1})
        for _ in range(10):
            predictor.update(0x100, 4, 3)
        assert predictor.predict(0x100, 4) == 1

    def test_negative_hint_rejected(self):
        with pytest.raises(PredictorConfigError):
            StaticHintExitPredictor({0x100: -1})

    def test_storage_two_bits_per_hint(self):
        predictor = StaticHintExitPredictor({0x100: 1, 0x200: 0})
        assert predictor.storage_bits() == 4
        assert predictor.n_hints == 2


class TestProfiling:
    def test_profile_learns_majority_exit(self, compress_workload):
        predictor = StaticHintExitPredictor.profile_from_trace(
            compress_workload.trace, training_fraction=0.5
        )
        assert predictor.n_hints > 0
        stats = simulate_exit_prediction(compress_workload, predictor)
        # Static hints must beat always-exit-0 (which misses every record
        # whose majority exit isn't 0).
        always_zero = StaticHintExitPredictor({})
        baseline = simulate_exit_prediction(compress_workload, always_zero)
        assert stats.misses <= baseline.misses

    def test_training_fraction_validation(self, compress_workload):
        with pytest.raises(PredictorConfigError):
            StaticHintExitPredictor.profile_from_trace(
                compress_workload.trace, training_fraction=0.0
            )

    def test_dynamic_path_beats_static(self, gcc_workload):
        """The reason dynamic predictors exist: history beats bias."""
        from repro.predictors.exit_predictors import PathExitPredictor
        from repro.predictors.folding import DolcSpec

        static = StaticHintExitPredictor.profile_from_trace(
            gcc_workload.trace, training_fraction=1.0
        )  # even with oracle-complete profiling...
        static_stats = simulate_exit_prediction(gcc_workload, static)
        path_stats = simulate_exit_prediction(
            gcc_workload, PathExitPredictor(DolcSpec.parse("6-5-8-9(3)"))
        )
        assert path_stats.misses < static_stats.misses

    def test_ext_static_experiment(self, pinned):
        pinned("ext_static.path_beats_static")