"""Tests for the task-granularity timing simulator."""

import pytest

from repro.errors import PredictorConfigError, SimulationError
from repro.predictors.exit_predictors import (
    PathExitPredictor,
    SimpleExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import (
    HeaderTaskPredictor,
    PerfectTaskPredictor,
)
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.reference import ProcessingRing
from repro.sim.timing import TimingConfig, simulate_timing


def header_predictor(workload):
    return HeaderTaskPredictor(
        program=workload.program,
        exit_predictor=PathExitPredictor(DolcSpec.parse("6-5-8-9(3)")),
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse("5-5-6-7(3)")),
        ras=ReturnAddressStack(depth=32),
    )


class TestTimingConfig:
    def test_defaults_valid(self):
        TimingConfig()

    def test_rejects_zero_units(self):
        with pytest.raises(PredictorConfigError):
            TimingConfig(n_units=0)

    def test_rejects_bad_forward_fraction(self):
        with pytest.raises(PredictorConfigError):
            TimingConfig(forward_fraction=1.5)

    def test_rejects_negative_penalties(self):
        with pytest.raises(PredictorConfigError):
            TimingConfig(task_mispredict_penalty=-1)


class TestProcessingRing:
    def test_round_robin_free_times(self):
        ring = ProcessingRing(2)
        ring.occupy_and_commit(10)
        ring.occupy_and_commit(12)
        # Next unit is the one that committed at 10? No: round-robin wraps
        # back to unit 0, whose occupant committed at 10.
        assert ring.unit_free_time() == 10

    def test_fifo_commit_enforced(self):
        ring = ProcessingRing(2)
        ring.occupy_and_commit(10)
        with pytest.raises(SimulationError):
            ring.occupy_and_commit(9)

    def test_squash_frees_future_units(self):
        ring = ProcessingRing(3)
        ring.occupy_and_commit(5)
        ring.occupy_and_commit(100)
        ring.squash_speculative(restart_time=10)
        ring.occupy_and_commit(100)  # commits stay monotone
        assert ring.last_commit_time == 100

    def test_needs_a_unit(self):
        with pytest.raises(SimulationError):
            ProcessingRing(0)


class TestSimulateTiming:
    def test_perfect_prediction_upper_bounds_real(self, compress_workload):
        perfect = simulate_timing(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace),
        )
        real = simulate_timing(
            compress_workload, header_predictor(compress_workload)
        )
        assert perfect.ipc >= real.ipc
        assert perfect.task_mispredicts == 0
        assert real.tasks == perfect.tasks

    def test_better_exit_prediction_gives_higher_ipc(self, gcc_workload):
        """PATH beats the Simple (task-address-indexed) predictor on gcc —
        the mechanism behind Table 4."""
        simple_predictor = HeaderTaskPredictor(
            program=gcc_workload.program,
            exit_predictor=SimpleExitPredictor(index_bits=14),
            cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse("5-5-6-7(3)")),
            ras=ReturnAddressStack(depth=32),
        )
        simple = simulate_timing(gcc_workload, simple_predictor)
        path = simulate_timing(gcc_workload, header_predictor(gcc_workload))
        assert path.ipc > simple.ipc
        assert path.task_mispredicts < simple.task_mispredicts

    def test_instructions_match_trace(self, compress_workload):
        result = simulate_timing(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace),
        )
        assert result.instructions == (
            compress_workload.trace.total_instructions()
        )

    def test_more_units_never_slower(self, compress_workload):
        def run(n_units):
            return simulate_timing(
                compress_workload,
                PerfectTaskPredictor(compress_workload.trace),
                config=TimingConfig(n_units=n_units),
            )

        assert run(4).cycles <= run(1).cycles

    def test_mispredict_penalty_costs_cycles(self, compress_workload):
        def run(penalty):
            return simulate_timing(
                compress_workload,
                header_predictor(compress_workload),
                config=TimingConfig(task_mispredict_penalty=penalty),
            )

        assert run(20).cycles >= run(0).cycles

    def test_serial_fraction_slows_machine(self, compress_workload):
        def run(fraction):
            return simulate_timing(
                compress_workload,
                PerfectTaskPredictor(compress_workload.trace),
                config=TimingConfig(forward_fraction=fraction),
            )

        assert run(1.0).cycles >= run(0.0).cycles

    def test_limit(self, compress_workload):
        result = simulate_timing(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace.head(100)),
            limit=100,
        )
        assert result.tasks == 100

    def test_ipc_positive(self, compress_workload):
        result = simulate_timing(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace),
        )
        assert result.ipc > 0.0
        assert result.task_mispredict_rate == 0.0
