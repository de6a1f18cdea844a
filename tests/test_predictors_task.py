"""Tests for the composed next-task predictors."""

import pytest

from repro.errors import PredictorConfigError, SimulationError
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import (
    CttbOnlyTaskPredictor,
    HeaderTaskPredictor,
    PerfectTaskPredictor,
)
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.functional import (
    simulate_task_prediction,
)

from tests.helpers import (
    call_program,
    compile_small,
    make_workload,
    run_trace,
    straightline_program,
)


def header_predictor(program, spec="2-3-3-5(1)"):
    return HeaderTaskPredictor(
        program=program,
        exit_predictor=PathExitPredictor(DolcSpec.parse("2-4-5-5(1)")),
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse(spec)),
        ras=ReturnAddressStack(depth=16),
    )


class TestHeaderTaskPredictor:
    def test_branch_exits_predicted_from_header(self):
        from repro.synth.behavior import FixedChoice
        from tests.helpers import diamond_program

        compiled = compile_small(diamond_program(FixedChoice(0)), max_blocks=1)
        trace = run_trace(compiled, 200)
        workload = make_workload(compiled, trace)
        predictor = header_predictor(compiled.program)
        stats = simulate_task_prediction(workload, predictor)
        # Branch targets come from headers, and the exit choice is fixed:
        # after a short warmup every branch exit is predicted exactly. Only
        # main's own RETURN (driver re-entry, empty RAS) can miss.
        assert stats.miss_rate_for("branch") < 0.1

    def test_calls_and_returns_use_ras(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 100)
        workload = make_workload(compiled, trace)
        predictor = header_predictor(compiled.program)
        stats = simulate_task_prediction(workload, predictor)
        # After warmup the RAS predicts every return from f exactly; only
        # main's own returns (stack empty -> driver re-entry) can miss.
        return_miss = stats.miss_rate_for("return")
        assert return_miss < 0.35
        assert stats.miss_rate_for("call") == 0.0

    def test_unknown_task_rejected(self):
        compiled = compile_small(call_program())
        predictor = header_predictor(compiled.program)
        with pytest.raises(SimulationError):
            predictor.predict(0xDEAD00)

    def test_storage_sums_components(self):
        compiled = compile_small(call_program())
        predictor = header_predictor(compiled.program)
        expected = (
            predictor.exit_predictor.storage_bits()
            + CorrelatedTaskTargetBuffer(
                DolcSpec.parse("2-3-3-5(1)")
            ).storage_bits()
            + ReturnAddressStack(depth=16).storage_bits()
        )
        assert predictor.storage_bits() == expected


class TestCttbOnlyPredictor:
    def test_learns_straightline_successors(self):
        compiled = compile_small(straightline_program())
        trace = run_trace(compiled, 60)
        workload = make_workload(compiled, trace)
        predictor = CttbOnlyTaskPredictor(
            CorrelatedTaskTargetBuffer(DolcSpec.parse("2-3-3-5(1)"))
        )
        stats = simulate_task_prediction(workload, predictor)
        # After the cold start, a fixed-successor program is fully learned.
        assert stats.address_misses < len(trace) // 4

    def test_worse_than_header_on_call_heavy_benchmark(self, xlisp_workload):
        """The CTTB-only scheme lacks a RAS, so call-heavy code suffers —
        the paper's main finding in §5.4 / Table 3. xlisp's deep recursive
        call stacks outrun what path correlation can recover."""
        cttb_only = simulate_task_prediction(
            xlisp_workload,
            CttbOnlyTaskPredictor(
                CorrelatedTaskTargetBuffer(DolcSpec.parse("7-4-9-9(3)"))
            ),
        )
        with_header = simulate_task_prediction(
            xlisp_workload,
            HeaderTaskPredictor(
                program=xlisp_workload.program,
                exit_predictor=PathExitPredictor(
                    DolcSpec.parse("7-4-9-9(3)")
                ),
                cttb=CorrelatedTaskTargetBuffer(
                    DolcSpec.parse("5-5-6-7(3)")
                ),
                ras=ReturnAddressStack(depth=32),
            ),
        )
        assert (
            with_header.address_miss_rate < cttb_only.address_miss_rate
        )
        # And specifically because returns lose the RAS:
        assert with_header.miss_rate_for("return") < cttb_only.miss_rate_for(
            "return"
        )


class TestPerfectTaskPredictor:
    def test_never_mispredicts(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 50)
        workload = make_workload(compiled, trace)
        stats = simulate_task_prediction(
            workload, PerfectTaskPredictor(trace)
        )
        assert stats.address_misses == 0

    def test_out_of_order_query_rejected(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 10)
        predictor = PerfectTaskPredictor(trace)
        wrong_addr = int(trace.task_addr[5])
        if wrong_addr == int(trace.task_addr[0]):
            pytest.skip("trace starts where it continues")
        with pytest.raises(PredictorConfigError):
            predictor.predict(wrong_addr)

    def test_running_past_trace_rejected(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 5)
        predictor = PerfectTaskPredictor(trace)
        for i in range(5):
            predictor.predict(int(trace.task_addr[i]))
            predictor.update(0, 0, 0, 0)
        with pytest.raises(SimulationError):
            predictor.predict(int(trace.task_addr[0]))
