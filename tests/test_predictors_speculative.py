"""Tests for speculative-history prediction and the relaxed simulator."""

import pytest

from repro.errors import PredictorConfigError
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.speculative import SpeculativePathPredictor
from repro.sim.functional import simulate_exit_prediction
from repro.sim.relaxed import simulate_speculative_exit_prediction

_SPEC = DolcSpec.parse("4-5-6-7(2)")


class TestSpeculativePathPredictor:
    def test_policy_validation(self):
        with pytest.raises(PredictorConfigError):
            SpeculativePathPredictor(_SPEC, repair="magic")
        with pytest.raises(PredictorConfigError):
            SpeculativePathPredictor(_SPEC, max_in_flight=0)

    def test_predict_resolve_lifecycle(self):
        predictor = SpeculativePathPredictor(_SPEC)
        exit_index = predictor.predict(0x100, 2)
        assert 0 <= exit_index < 2
        predictor.resolve(0x100, 2, actual_exit=1, was_wrong_path=False)
        assert predictor.states_touched() == 1

    def test_single_exit_task_trivial(self):
        predictor = SpeculativePathPredictor(_SPEC)
        assert predictor.predict(0x100, 1) == 0
        predictor.resolve(0x100, 1, 0, was_wrong_path=False)
        assert predictor.states_touched() == 0

    def test_perfect_repair_removes_pollution(self):
        predictor = SpeculativePathPredictor(_SPEC, repair="perfect")
        predictor.predict(0x100, 2)
        predictor.resolve(0x100, 2, 0, was_wrong_path=False)
        predictor.predict(0x200, 2)
        # Wrong-path pollution after the 0x200 prediction:
        predictor.predict_wrong_path(0xDEAD0, 2)
        predictor.predict_wrong_path(0xBEEF0, 2)
        predictor.resolve(0x200, 2, 1, was_wrong_path=True)
        # Path must now be exactly [0x100, 0x200]: checkpoint + the task.
        assert list(predictor._path) == [0x100, 0x200]

    def test_squash_repair_clears_history(self):
        predictor = SpeculativePathPredictor(_SPEC, repair="squash")
        predictor.predict(0x100, 2)
        predictor.predict_wrong_path(0xDEAD0, 2)
        predictor.resolve(0x100, 2, 1, was_wrong_path=True)
        assert list(predictor._path) == []

    def test_no_repair_keeps_pollution(self):
        predictor = SpeculativePathPredictor(_SPEC, repair="none")
        predictor.predict(0x100, 2)
        predictor.predict_wrong_path(0xDEAD0, 2)
        predictor.resolve(0x100, 2, 1, was_wrong_path=True)
        assert 0xDEAD0 in list(predictor._path)

    def test_wrong_path_takes_no_checkpoint(self):
        predictor = SpeculativePathPredictor(_SPEC)
        predictor.predict_wrong_path(0x100, 2)
        assert len(predictor._checkpoints) == 0


class TestRelaxedSimulation:
    def test_perfect_repair_matches_idealised_simulator(
        self, compress_workload
    ):
        """With perfect repair, speculative simulation must reproduce the
        paper-idealised miss rate exactly — the two models are equivalent
        when repair is lossless."""
        idealised = simulate_exit_prediction(
            compress_workload, PathExitPredictor(_SPEC)
        )
        speculative = simulate_speculative_exit_prediction(
            compress_workload,
            SpeculativePathPredictor(_SPEC, repair="perfect"),
        )
        assert speculative.misses == idealised.misses
        assert speculative.trials == idealised.trials

    def test_pollution_hurts_without_repair(self, gcc_workload):
        def run(policy):
            return simulate_speculative_exit_prediction(
                gcc_workload,
                SpeculativePathPredictor(_SPEC, repair=policy),
            )

        perfect = run("perfect")
        none = run("none")
        assert none.misses >= perfect.misses

    def test_wrong_path_predictions_counted(self, gcc_workload):
        stats = simulate_speculative_exit_prediction(
            gcc_workload,
            SpeculativePathPredictor(_SPEC, repair="perfect"),
            wrong_path_depth=4,
        )
        assert stats.wrong_path_predictions > 0
        assert stats.miss_rate > 0.0

    def test_zero_wrong_path_depth(self, compress_workload):
        stats = simulate_speculative_exit_prediction(
            compress_workload,
            SpeculativePathPredictor(_SPEC, repair="none"),
            wrong_path_depth=0,
        )
        assert stats.wrong_path_predictions == 0


class TestExtensionExperiments:
    def test_ext_repair_runs_and_orders(self, pinned):
        pinned("ext_repair.perfect_repair_exact")
        pinned("ext_repair.no_repair_never_helps")

    def test_ext_ras_deep_stack_nearly_perfect(self, pinned):
        pinned("ext_ras.deeper_never_worse")
        pinned("ext_ras.deep_stack_nearly_perfect")

    def test_ext_cttb_monotone_capacity(self, pinned):
        pinned("ext_cttb.capacity_helps")
