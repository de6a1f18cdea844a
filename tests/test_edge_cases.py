"""Targeted edge-case tests across modules."""

import pytest

from repro.cfg.basicblock import TerminatorKind
from repro.compiler import PartitionConfig
from repro.compiler.partitioner import TaskPartitioner
from repro.errors import PartitionError, SimulationError
from repro.synth.behavior import BiasedChoice

from tests.helpers import block, diamond_program


class TestPartitionerEdges:
    def test_unsplittable_single_block_raises(self):
        """A conditional branch whose two arms are forced task starts has
        two distinct exit targets even as a single-block task: under a
        1-exit budget the partitioner must fail loudly rather than emit an
        illegal header."""
        from repro.cfg.graph import ControlFlowGraph
        from repro.synth.behavior import FixedChoice

        cfg = ControlFlowGraph("f", entry_label="f.entry")
        cfg.add_block(block("f.entry", TerminatorKind.JUMP, ("f.cond",)))
        cfg.add_block(
            block(
                "f.cond",
                TerminatorKind.COND_BRANCH,
                ("f.a", "f.b"),
                behavior=BiasedChoice(0.5),
            )
        )
        # f.a is also targeted by f.join, so both arms are multi-pred
        # leaders that cannot be absorbed into f.cond's task.
        cfg.add_block(block("f.a", TerminatorKind.JUMP, ("f.join",)))
        cfg.add_block(block("f.b", TerminatorKind.JUMP, ("f.join",)))
        cfg.add_block(
            block(
                "f.join",
                TerminatorKind.COND_BRANCH,
                ("f.a", "f.ret"),
                behavior=FixedChoice(1),
            )
        )
        cfg.add_block(block("f.ret", TerminatorKind.RETURN))
        with pytest.raises(PartitionError):
            TaskPartitioner(
                cfg, PartitionConfig(max_exits_per_task=1)
            ).partition()

    def test_diamond_fits_one_exit_budget(self):
        """Both arms of a diamond share the join target, so the whole
        diamond legally collapses into a single one-exit task."""
        program = diamond_program(BiasedChoice(0.5))
        regions = TaskPartitioner(
            program.function("main"),
            PartitionConfig(max_exits_per_task=1),
        ).partition()
        for region in regions:
            assert len(region.exit_descriptors) <= 1

    def test_two_exit_budget_suffices_for_diamond(self):
        program = diamond_program(BiasedChoice(0.5))
        regions = TaskPartitioner(
            program.function("main"),
            PartitionConfig(max_exits_per_task=2),
        ).partition()
        for region in regions:
            assert len(region.exit_descriptors) <= 2

    def test_unreachable_blocks_ignored(self):
        from repro.cfg.graph import ControlFlowGraph

        cfg = ControlFlowGraph("f", entry_label="f.a")
        cfg.add_block(block("f.a", TerminatorKind.RETURN))
        cfg.add_block(block("f.dead", TerminatorKind.JUMP, ("f.a",)))
        regions = TaskPartitioner(cfg, PartitionConfig()).partition()
        assigned = {label for r in regions for label in r.blocks}
        assert "f.dead" not in assigned


class TestSimulatorEdges:
    def test_exit_simulation_detects_corrupt_trace(self, compress_workload):
        """A single-exit task recorded with exit 1 is a corrupt trace; the
        simulator must refuse rather than mis-count."""
        from repro.sim.functional import simulate_exit_prediction
        from repro.predictors.ideal import IdealPathPredictor
        from repro.synth.trace import TaskTrace
        from repro.synth.workloads import Workload

        trace = compress_workload.trace
        n_exits_of = compress_workload.exit_counts()
        # Find a single-exit record and corrupt its exit index.
        position = next(
            i for i, a in enumerate(trace.task_addr.tolist())
            if n_exits_of[a] == 1
        )
        exit_index = trace.exit_index.copy()
        exit_index[position] = 1
        corrupt = Workload(
            profile=compress_workload.profile,
            program=compress_workload.program,
            trace=TaskTrace(
                task_addr=trace.task_addr,
                exit_index=exit_index,
                cf_type=trace.cf_type,
                next_addr=trace.next_addr,
                instructions=trace.instructions,
                internal_branches=trace.internal_branches,
                internal_mispredicts=trace.internal_mispredicts,
            ),
        )
        with pytest.raises(SimulationError):
            simulate_exit_prediction(corrupt, IdealPathPredictor(2))

    def test_relaxed_sim_handles_unknown_wrong_path_target(
        self, compress_workload
    ):
        """Wrong-path walking must stop gracefully at targets that are not
        task starts (e.g. stale header targets)."""
        from repro.predictors.folding import DolcSpec
        from repro.predictors.speculative import SpeculativePathPredictor
        from repro.sim.relaxed import simulate_speculative_exit_prediction

        stats = simulate_speculative_exit_prediction(
            compress_workload,
            SpeculativePathPredictor(
                DolcSpec.parse("2-4-5-5(1)"), repair="squash"
            ),
            wrong_path_depth=8,
        )
        assert stats.trials == len(compress_workload.trace)


def _with_task_addrs(workload, task_addrs):
    """``workload`` with its trace's task-address column replaced."""
    from repro.synth.trace import TaskTrace
    from repro.synth.workloads import Workload

    trace = workload.trace
    return Workload(
        profile=workload.profile,
        program=workload.program,
        trace=TaskTrace(
            task_addr=task_addrs,
            exit_index=trace.exit_index,
            cf_type=trace.cf_type,
            next_addr=trace.next_addr,
            instructions=trace.instructions,
            internal_branches=trace.internal_branches,
            internal_mispredicts=trace.internal_mispredicts,
        ),
    )


def _six_simulators():
    """``(name, run(workload, limit))`` for every production simulator."""
    from repro.evalx.experiments.table4 import _make_predictor
    from repro.predictors.confidence import (
        ResettingConfidenceEstimator,
        simulate_confidence,
    )
    from repro.predictors.exit_predictors import PathExitPredictor
    from repro.predictors.folding import DolcSpec
    from repro.predictors.speculative import SpeculativePathPredictor
    from repro.predictors.ttb import CorrelatedTaskTargetBuffer
    from repro.sim.functional import (
        simulate_exit_prediction,
        simulate_indirect_target_prediction,
        simulate_task_prediction,
    )
    from repro.sim.relaxed import simulate_speculative_exit_prediction
    from repro.sim.timing import TimingConfig, simulate_timing

    spec = DolcSpec.parse("4-5-6-7(2)")
    return {
        "exit": lambda w, limit: simulate_exit_prediction(
            w, PathExitPredictor(spec), limit=limit
        ),
        "target": lambda w, limit: simulate_indirect_target_prediction(
            w, CorrelatedTaskTargetBuffer(spec), limit=limit
        ),
        "task": lambda w, limit: simulate_task_prediction(
            w, _make_predictor("PATH", w), limit=limit
        ),
        "speculative": lambda w, limit: simulate_speculative_exit_prediction(
            w, SpeculativePathPredictor(spec), limit=limit
        ),
        "timing": lambda w, limit: simulate_timing(
            w, _make_predictor("PATH", w),
            TimingConfig(dependence_aware=True), limit=limit,
        ),
        "confidence": lambda w, limit: simulate_confidence(
            w, PathExitPredictor(spec),
            ResettingConfidenceEstimator(spec), limit=limit,
        ),
    }


_SIMULATORS = (
    "exit", "target", "task", "speculative", "timing", "confidence"
)


class TestEverySimulatorIsTotal:
    """Each production simulator answers every trace itself: zeros for
    an empty one, a :class:`SimulationError` for an unknown task."""

    @pytest.mark.parametrize("simulator", _SIMULATORS)
    def test_empty_trace_gives_zero_result(self, compress_workload, simulator):
        result = _six_simulators()[simulator](compress_workload, 0)
        counts = {
            name: value for name, value in vars(result).items()
            if name not in ("storage_bits", "states_touched")
        }
        assert counts and not any(counts.values()), result

    @pytest.mark.parametrize("simulator", _SIMULATORS)
    def test_unknown_task_raises(self, compress_workload, simulator):
        task_addrs = compress_workload.trace.task_addr.copy()
        task_addrs[7] = 0x7FFF_FFF0  # no task starts here
        stray = _with_task_addrs(compress_workload, task_addrs)
        with pytest.raises(SimulationError, match="unknown task"):
            _six_simulators()[simulator](stray, 500)


class TestChartEdges:
    def test_single_series_many_points(self):
        from repro.evalx.charts import render_chart

        chart = render_chart(
            list(range(50)),
            {"s": [0.5 - 0.005 * i for i in range(50)]},
            height=8,
            width=30,
        )
        assert chart.count("\n") >= 8

    def test_negative_values_supported(self):
        from repro.evalx.charts import render_chart

        chart = render_chart(
            [0, 1, 2],
            {"delta": [-0.05, 0.0, 0.08]},
            as_percent=False,
        )
        assert "-0.050" in chart
