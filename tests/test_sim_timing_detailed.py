"""Tests for the cycle-stepped detailed timing model (a reference model)."""

import pytest

from repro.errors import SimulationError
from repro.predictors.task_predictor import PerfectTaskPredictor
from repro.sim.reference import simulate_timing_detailed
from repro.sim.timing import TimingConfig, simulate_timing
from repro.evalx.experiments.table4 import _make_predictor


class TestCrossValidation:
    """The detailed and analytic models describe the same machine: their
    IPCs must agree closely on identical inputs."""

    @pytest.mark.parametrize("scheme", ["Simple", "PATH", "Perfect"])
    def test_models_agree_on_compress(self, compress_workload, scheme):
        detailed = simulate_timing_detailed(
            compress_workload,
            _make_predictor(scheme, compress_workload),
            limit=5000,
        )
        analytic = simulate_timing(
            compress_workload,
            _make_predictor(scheme, compress_workload),
            limit=5000,
        )
        assert detailed.ipc == pytest.approx(analytic.ipc, rel=0.10)
        assert detailed.task_mispredicts == analytic.task_mispredicts

    def test_models_agree_on_gcc(self, gcc_workload):
        detailed = simulate_timing_detailed(
            gcc_workload,
            _make_predictor("PATH", gcc_workload),
            limit=5000,
        )
        analytic = simulate_timing(
            gcc_workload,
            _make_predictor("PATH", gcc_workload),
            limit=5000,
        )
        assert detailed.ipc == pytest.approx(analytic.ipc, rel=0.15)


class TestDetailedModelProperties:
    def test_utilisation_bounds(self, compress_workload):
        result = simulate_timing_detailed(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace.head(3000)),
            limit=3000,
        )
        assert 0.0 < result.unit_utilisation <= 1.0
        assert 0.0 < result.mean_window_occupancy <= 4.0

    def test_more_units_raise_occupancy(self, compress_workload):
        def run(n_units):
            return simulate_timing_detailed(
                compress_workload,
                PerfectTaskPredictor(compress_workload.trace.head(3000)),
                config=TimingConfig(n_units=n_units),
                limit=3000,
            )

        one = run(1)
        four = run(4)
        assert four.mean_window_occupancy > one.mean_window_occupancy
        assert four.cycles <= one.cycles

    def test_mispredicts_reduce_occupancy(self, gcc_workload):
        perfect = simulate_timing_detailed(
            gcc_workload,
            PerfectTaskPredictor(gcc_workload.trace.head(4000)),
            limit=4000,
        )
        real = simulate_timing_detailed(
            gcc_workload,
            _make_predictor("Simple", gcc_workload),
            limit=4000,
        )
        assert real.mean_window_occupancy < perfect.mean_window_occupancy

    def test_cycle_ceiling_raises(self, compress_workload):
        with pytest.raises(SimulationError):
            simulate_timing_detailed(
                compress_workload,
                PerfectTaskPredictor(compress_workload.trace.head(1000)),
                limit=1000,
                max_cycles=10,
            )

    def test_instruction_accounting(self, compress_workload):
        limited = compress_workload.trace.head(2000)
        result = simulate_timing_detailed(
            compress_workload,
            PerfectTaskPredictor(limited),
            limit=2000,
        )
        assert result.instructions == limited.total_instructions()
        assert result.tasks == 2000
