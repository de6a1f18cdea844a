"""Tests for the trace executor: semantics and trace invariants."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa.controlflow import ControlFlowType
from repro.synth.behavior import FixedChoice, PeriodicChoice
from repro.synth.executor import TraceExecutor
from repro.synth.trace import CF_TYPE_CODES
from repro.synth.workloads import build_program

from tests.helpers import (
    call_program,
    compile_small,
    diamond_program,
    run_trace,
    straightline_program,
    switch_program,
)


class TestStraightLineExecution:
    def test_trace_chains_addresses(self):
        compiled = compile_small(straightline_program())
        trace = run_trace(compiled, 12)
        # Every record's next_addr equals the following record's task_addr.
        np.testing.assert_array_equal(
            trace.next_addr[:-1], trace.task_addr[1:]
        )

    def test_exit_indices_within_headers(self):
        compiled = compile_small(straightline_program())
        trace = run_trace(compiled, 12)
        for addr, exit_index in zip(
            trace.task_addr.tolist(), trace.exit_index.tolist()
        ):
            assert exit_index < compiled.program.task(addr).n_exits

    def test_main_reentry_on_return(self):
        compiled = compile_small(straightline_program())
        trace = run_trace(compiled, 12)
        ret_code = CF_TYPE_CODES[ControlFlowType.RETURN]
        ret_positions = np.nonzero(trace.cf_type == ret_code)[0]
        assert len(ret_positions) > 0
        entry_task = compiled.entry_block("main").task_address
        for pos in ret_positions:
            assert int(trace.next_addr[pos]) == entry_task

    def test_requested_length_honoured(self):
        compiled = compile_small(straightline_program())
        assert len(run_trace(compiled, 37)) == 37

    def test_zero_length_rejected(self):
        compiled = compile_small(straightline_program())
        with pytest.raises(SimulationError):
            TraceExecutor(compiled).run(0)


class TestCallReturnSemantics:
    def test_calls_and_returns_balance(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 60)
        call_code = CF_TYPE_CODES[ControlFlowType.CALL]
        ret_code = CF_TYPE_CODES[ControlFlowType.RETURN]
        calls = int((trace.cf_type == call_code).sum())
        # Each main iteration: 2 calls + 2 returns from f + 1 main return.
        returns = int((trace.cf_type == ret_code).sum())
        assert calls > 0
        assert abs(returns - calls) <= calls  # returns include main's

    def test_call_targets_are_callee_entry(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 30)
        call_code = CF_TYPE_CODES[ControlFlowType.CALL]
        f_entry = compiled.entry_block("f").task_address
        for pos in np.nonzero(trace.cf_type == call_code)[0]:
            assert int(trace.next_addr[pos]) == f_entry

    def test_returns_resume_after_call_site(self):
        compiled = compile_small(call_program())
        trace = run_trace(compiled, 30)
        ret_code = CF_TYPE_CODES[ControlFlowType.RETURN]
        f_ret_task = compiled.block("f.ret").task_address
        return_targets = {
            int(trace.next_addr[pos])
            for pos in np.nonzero(trace.cf_type == ret_code)[0]
            if int(trace.task_addr[pos]) == f_ret_task
        }
        resume_points = {
            compiled.block("main.c2").task_address,
            compiled.block("main.ret").task_address,
        }
        assert return_targets == resume_points


class TestBranchAndSwitchExecution:
    def test_fixed_branch_takes_one_arm(self):
        compiled = compile_small(diamond_program(FixedChoice(0)))
        trace = run_trace(compiled, 40)
        then_task = compiled.block("main.then").task_address
        else_task = compiled.block("main.else").task_address
        addrs = set(trace.task_addr.tolist())
        assert then_task in addrs or then_task == compiled.block(
            "main.cond"
        ).task_address
        # The not-taken arm must never execute.
        cond_task = compiled.block("main.cond").task_address
        if else_task not in (cond_task, then_task):
            assert else_task not in addrs

    def test_periodic_branch_alternates_arms(self):
        compiled = compile_small(diamond_program(PeriodicChoice((0, 1))))
        trace = run_trace(compiled, 60)
        addrs = set(trace.task_addr.tolist()) | set(
            trace.next_addr.tolist()
        )
        then_task = compiled.block("main.then").task_address
        else_task = compiled.block("main.else").task_address
        assert then_task in addrs
        assert else_task in addrs

    def test_switch_reaches_selected_case(self):
        compiled = compile_small(switch_program(FixedChoice(2), arity=4))
        trace = run_trace(compiled, 30)
        ib_code = CF_TYPE_CODES[ControlFlowType.INDIRECT_BRANCH]
        case_task = compiled.block("main.case2").task_address
        for pos in np.nonzero(trace.cf_type == ib_code)[0]:
            assert int(trace.next_addr[pos]) == case_task


class TestExecutorDeterminism:
    def test_same_seed_same_trace(self):
        compiled = build_program("compress")
        a = TraceExecutor(compiled, seed=7).run(2000)
        b = TraceExecutor(compiled, seed=7).run(2000)
        np.testing.assert_array_equal(a.task_addr, b.task_addr)
        np.testing.assert_array_equal(a.exit_index, b.exit_index)
        np.testing.assert_array_equal(a.internal_mispredicts,
                                      b.internal_mispredicts)

    def test_different_seed_differs(self):
        compiled = build_program("compress")
        a = TraceExecutor(compiled, seed=1).run(2000)
        b = TraceExecutor(compiled, seed=2).run(2000)
        assert not np.array_equal(a.task_addr, b.task_addr)


class TestTraceInvariantsOnBenchmarks:
    """Whole-workload invariants over a real synthetic benchmark."""

    def test_next_addr_chain(self, xlisp_workload):
        trace = xlisp_workload.trace
        np.testing.assert_array_equal(
            trace.next_addr[:-1], trace.task_addr[1:]
        )

    def test_exits_within_header_bounds(self, xlisp_workload):
        n_exits_of = {
            t.address: t.n_exits
            for t in xlisp_workload.program.tfg
        }
        for addr, exit_index in zip(
            xlisp_workload.trace.task_addr.tolist(),
            xlisp_workload.trace.exit_index.tolist(),
        ):
            assert exit_index < n_exits_of[addr]

    def test_cf_type_matches_header_exit(self, xlisp_workload):
        program = xlisp_workload.program
        trace = xlisp_workload.trace
        for addr, exit_index, cf_code in zip(
            trace.task_addr.tolist()[:5000],
            trace.exit_index.tolist()[:5000],
            trace.cf_type.tolist()[:5000],
        ):
            header_exit = program.task(addr).exit(exit_index)
            assert CF_TYPE_CODES[header_exit.cf_type] == cf_code

    def test_mispredicts_bounded_by_branches(self, xlisp_workload):
        trace = xlisp_workload.trace
        assert np.all(
            trace.internal_mispredicts <= trace.internal_branches
        )

    def test_instructions_positive(self, xlisp_workload):
        assert np.all(xlisp_workload.trace.instructions >= 1)


class TestIntraTaskPrediction:
    """§2.2: the per-unit bimodal predictor handles intra-task branches
    'with only minimal accuracy loss'."""

    def test_bimodal_accuracy_reasonable(
        self, compress_workload, gcc_workload
    ):
        """Bias-dominated branches (compress) are captured well; even
        history-heavy workloads stay clearly above chance."""
        import numpy as np

        def accuracy(workload):
            trace = workload.trace
            branches = int(trace.internal_branches.sum(dtype=np.int64))
            misses = int(trace.internal_mispredicts.sum(dtype=np.int64))
            assert branches > 0
            return 1.0 - misses / branches

        assert accuracy(compress_workload) > 0.85
        assert accuracy(gcc_workload) > 0.6

    def test_mispredict_counts_deterministic(self):
        from repro.synth.executor import TraceExecutor

        compiled = build_program("compress")
        a = TraceExecutor(compiled, seed=5).run(3000)
        b = TraceExecutor(compiled, seed=5).run(3000)
        assert (
            a.internal_mispredicts.tolist()
            == b.internal_mispredicts.tolist()
        )
