"""Tests for the functional prediction simulators."""

import pytest

from repro.predictors.exit_predictors import SimpleExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.headers import NO_ADDRESS, task_headers
from repro.predictors.ideal import IdealPathPredictor
from repro.predictors.task_predictor import (
    HeaderTaskPredictor,
    PerfectTaskPredictor,
)
from repro.predictors.ttb import (
    CorrelatedTaskTargetBuffer,
    TaskTargetBuffer,
)
from repro.sim.functional import (
    batched_task_prediction_column,
    exit_count_column,
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
    simulate_task_prediction,
)
from repro.sim.result import (
    ExitPredictionStats,
    TargetPredictionStats,
    TaskPredictionStats,
)
from repro.synth.behavior import FixedChoice, PeriodicChoice
from repro.synth.trace import CF_TYPE_CODES
from repro.synth.workloads import Workload
from repro.isa.controlflow import ControlFlowType

from tests.helpers import (
    compile_small,
    diamond_program,
    make_workload,
    run_trace,
    switch_program,
)


def diamond_workload(behavior, n=200):
    compiled = compile_small(diamond_program(behavior), max_blocks=1)
    return make_workload(compiled, run_trace(compiled, n))


class TestSimulateExitPrediction:
    def test_fixed_branch_eventually_never_misses(self):
        workload = diamond_workload(FixedChoice(0))
        stats = simulate_exit_prediction(
            workload, SimpleExitPredictor(index_bits=8)
        )
        # Only warmup misses: far fewer than the number of trials.
        assert stats.misses <= 4

    def test_alternating_branch_defeats_depth0(self):
        workload = diamond_workload(PeriodicChoice((0, 1)))
        depth0 = simulate_exit_prediction(
            workload, SimpleExitPredictor(index_bits=8)
        )
        deep = simulate_exit_prediction(workload, IdealPathPredictor(4))
        assert deep.misses < depth0.misses

    def test_trials_count_all_records(self):
        workload = diamond_workload(FixedChoice(0), n=123)
        stats = simulate_exit_prediction(
            workload, SimpleExitPredictor(index_bits=8)
        )
        assert stats.trials == 123
        assert stats.multiway_trials <= stats.trials

    def test_limit_truncates(self):
        workload = diamond_workload(FixedChoice(0), n=100)
        stats = simulate_exit_prediction(
            workload, SimpleExitPredictor(index_bits=8), limit=10
        )
        assert stats.trials == 10

    def test_miss_rates_consistent(self):
        workload = diamond_workload(PeriodicChoice((0, 1, 1)))
        stats = simulate_exit_prediction(workload, IdealPathPredictor(0))
        assert 0.0 <= stats.miss_rate <= 1.0
        assert stats.multiway_misses == stats.misses
        if stats.multiway_trials:
            assert stats.multiway_miss_rate >= stats.miss_rate


class TestSimulateIndirectTargetPrediction:
    def test_counts_only_indirect_records(self):
        workload = make_workload(
            *_switch_workload(PeriodicChoice((0, 1, 2)), n=90)
        )
        ib = CF_TYPE_CODES[ControlFlowType.INDIRECT_BRANCH]
        expected = int((workload.trace.cf_type == ib).sum())
        stats = simulate_indirect_target_prediction(
            workload, TaskTargetBuffer(index_bits=8)
        )
        assert stats.trials == expected

    def test_cttb_beats_ttb_on_path_dependent_targets(self):
        """A switch cycling targets defeats the TTB but the periodic cycle
        is visible in the task path (case blocks differ), so the CTTB
        learns it — the core claim of §5.3."""
        compiled, trace = _switch_workload(PeriodicChoice((0, 1)), n=400)
        workload = make_workload(compiled, trace)
        ttb = simulate_indirect_target_prediction(
            workload, TaskTargetBuffer(index_bits=10)
        )
        cttb = simulate_indirect_target_prediction(
            workload,
            CorrelatedTaskTargetBuffer(DolcSpec.parse("3-5-6-6(2)")),
        )
        assert cttb.misses < ttb.misses

    def test_no_indirects_gives_zero_trials(self):
        workload = diamond_workload(FixedChoice(0))
        stats = simulate_indirect_target_prediction(
            workload, TaskTargetBuffer(index_bits=8)
        )
        assert stats.trials == 0
        assert stats.miss_rate == 0.0


def _switch_workload(behavior, n):
    compiled = compile_small(switch_program(behavior, arity=3))
    return compiled, run_trace(compiled, n)


class TestSimulateTaskPrediction:
    def test_perfect_predictor_never_misses(self, compress_workload):
        stats = simulate_task_prediction(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace),
        )
        assert stats.address_misses == 0
        assert stats.trials == len(compress_workload.trace)

    def test_per_type_breakdown_sums(self, compress_workload):
        stats = simulate_task_prediction(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace),
        )
        assert sum(stats.trials_by_type.values()) == stats.trials

    def test_limit(self, compress_workload):
        limited = compress_workload.trace.head(50)
        stats = simulate_task_prediction(
            compress_workload,
            PerfectTaskPredictor(limited),
            limit=50,
        )
        assert stats.trials == 50


class TestResultRecords:
    def test_exit_stats_zero_trials(self):
        stats = ExitPredictionStats(0, 0, 0, 0, 0, 0)
        assert stats.miss_rate == 0.0
        assert stats.multiway_miss_rate == 0.0

    def test_target_stats_rates(self):
        stats = TargetPredictionStats(
            trials=10, misses=3, entries_touched=5, storage_bits=0
        )
        assert stats.miss_rate == pytest.approx(0.3)

    def test_task_stats_type_rates(self):
        stats = TaskPredictionStats(
            trials=10,
            address_misses=4,
            misses_by_type={"return": 4},
            trials_by_type={"return": 5, "branch": 5},
        )
        assert stats.miss_rate_for("return") == pytest.approx(0.8)
        assert stats.miss_rate_for("branch") == 0.0
        assert stats.miss_rate_for("nothing") == 0.0


class TestTaskHeaderTable:
    """Every batched simulator reads one header table per program."""

    def test_rows_hold_each_task_header(self, xlisp_workload):
        program = xlisp_workload.program
        table = task_headers(program)
        tasks = sorted(program.tfg, key=lambda task: task.address)
        assert table.addrs.tolist() == [task.address for task in tasks]
        for row, task in enumerate(tasks):
            assert table.n_exits[row] == task.n_exits
            assert table.create_mask[row] == task.header.create_mask
            assert table.use_mask[row] == task.use_mask
            for col, e in enumerate(task.header.exits):
                assert table.cf_codes[row, col] == CF_TYPE_CODES[e.cf_type]
                assert table.targets[row, col] == (
                    NO_ADDRESS if e.target is None else e.target
                )
                assert table.return_addrs[row, col] == (
                    NO_ADDRESS if e.return_address is None
                    else e.return_address
                )
        n_exits_of = xlisp_workload.exit_counts()
        trace = xlisp_workload.trace
        assert exit_count_column(xlisp_workload, trace.task_addr).tolist() == [
            n_exits_of[addr] for addr in trace.task_addr.tolist()
        ]

    def test_one_exit_count_column_per_program_and_trace(
        self, gcc_workload
    ):
        # Replays key their reuse on this column's identity.
        column = gcc_workload.trace.task_addr
        first = exit_count_column(gcc_workload, column)
        assert exit_count_column(gcc_workload, column) is first
        rewrapped = Workload(
            profile=gcc_workload.profile,
            program=gcc_workload.program,
            trace=gcc_workload.trace,
        )
        assert exit_count_column(rewrapped, column) is first

    def test_absent_header_address_never_reaches_a_prediction(
        self, xlisp_workload
    ):
        """RETURN and indirect exits carry no header target; the RAS
        and the CTTB answer every read of one."""
        table = task_headers(xlisp_workload.program)
        assert (table.targets == NO_ADDRESS).any()
        predictor = HeaderTaskPredictor(
            xlisp_workload.program,
            SimpleExitPredictor(),
            CorrelatedTaskTargetBuffer(DolcSpec.parse("5-5-6-7(3)")),
        )
        predicted = batched_task_prediction_column(
            xlisp_workload, predictor, xlisp_workload.trace
        )
        assert predicted.min() >= 0
