"""Tests for charts, validation, display, and loop analysis."""

import pytest

from repro.cfg.loops import loop_nesting_depths, natural_loops
from repro.errors import ExperimentError
from repro.evalx.charts import charts_for_result, render_chart
from repro.evalx.result import ExperimentResult
from repro.isa.display import (
    format_exit,
    format_program_summary,
    format_task,
    format_task_neighbourhood,
)
from repro.synth.validate import validate_workload

from tests.helpers import block
from repro.cfg.basicblock import TerminatorKind
from repro.cfg.graph import ControlFlowGraph
from repro.synth.behavior import FixedChoice


class TestRenderChart:
    def test_basic_chart_structure(self):
        chart = render_chart(
            [0, 1, 2, 3],
            {"a": [0.1, 0.08, 0.06, 0.05], "b": [0.12, 0.11, 0.1, 0.09]},
            height=6,
            width=20,
        )
        lines = chart.splitlines()
        assert len(lines) == 6 + 3  # grid + axis + labels + legend
        assert "*=a" in lines[-1]
        assert "o=b" in lines[-1]

    def test_extremes_labelled(self):
        chart = render_chart([0, 1], {"s": [0.5, 0.25]}, height=4, width=12)
        assert "50.00%" in chart
        assert "25.00%" in chart

    def test_flat_series_does_not_crash(self):
        render_chart([0, 1, 2], {"s": [0.1, 0.1, 0.1]})

    def test_validation(self):
        with pytest.raises(ExperimentError):
            render_chart([0, 1], {})
        with pytest.raises(ExperimentError):
            render_chart([0], {"s": [0.1]})
        with pytest.raises(ExperimentError):
            render_chart([0, 1], {"s": [0.1]})  # length mismatch
        with pytest.raises(ExperimentError):
            render_chart([0, 1], {"s": [0.1, 0.2]}, height=1)

    def test_charts_for_result_series_layout(self):
        result = ExperimentResult(
            experiment_id="x", title="t", text="",
            data={"depths": [0, 1], "series": {"a": [0.2, 0.1]}},
        )
        charts = charts_for_result(result)
        assert len(charts) == 1
        assert "[x]" in charts[0]

    def test_charts_for_result_per_benchmark_layout(self):
        result = ExperimentResult(
            experiment_id="fig", title="t", text="",
            data={
                "configs": ["a", "b"],
                "gcc": {"ideal": [0.2, 0.1], "real": [0.25, 0.12]},
                "xlisp": {"ideal": [0.3, 0.2], "real": [0.3, 0.25]},
            },
        )
        charts = charts_for_result(result)
        assert len(charts) == 2

    def test_charts_for_tabular_result_empty(self):
        result = ExperimentResult(
            experiment_id="table", title="t", text="", data={"gcc": {}}
        )
        assert charts_for_result(result) == []


class TestValidateWorkload:
    def test_benchmark_workloads_pass(self, compress_workload):
        report = validate_workload(compress_workload)
        assert report.ok, str(report)

    def test_report_rendering(self, compress_workload):
        report = validate_workload(compress_workload)
        text = str(report)
        assert "validation: compress" in text
        assert "trace chains" in text

    def test_all_small_fixtures_valid(
        self, gcc_workload, sc_workload, xlisp_workload
    ):
        for workload in (gcc_workload, sc_workload, xlisp_workload):
            report = validate_workload(workload)
            assert report.ok, str(report)

    def test_failures_listed(self, compress_workload):
        # With an absurdly tight tolerance the count checks must fail...
        # tolerance applies only to >=100k traces; structural checks still
        # pass, so craft the check directly:
        report = validate_workload(compress_workload, tolerance=0.6)
        assert report.failures() == [
            c for c in report.checks if not c.ok
        ]


class TestDisplay:
    def test_format_task_includes_exits(self, compress_workload):
        program = compress_workload.program
        task = next(iter(program.tfg))
        text = format_task(task)
        assert f"{task.address:#x}" in text
        assert "exit 0:" in text

    def test_format_exit_mnemonics(self, compress_workload):
        program = compress_workload.program
        for task in program.tfg:
            for task_exit in task.header.exits:
                text = format_exit(task_exit)
                assert "->" in text

    def test_program_summary(self, compress_workload):
        program = compress_workload.program
        text = format_program_summary(program)
        assert "tasks" in text
        assert "header bits" in text

    def test_neighbourhood_lists_successors(self, compress_workload):
        program = compress_workload.program
        text = format_task_neighbourhood(program, program.entry)
        assert "task" in text


class TestNaturalLoops:
    def _loop_cfg(self):
        cfg = ControlFlowGraph("f", entry_label="f.h")
        cfg.add_block(
            block(
                "f.h",
                TerminatorKind.COND_BRANCH,
                ("f.body", "f.ret"),
                behavior=FixedChoice(1),
            )
        )
        cfg.add_block(block("f.body", TerminatorKind.JUMP, ("f.h",)))
        cfg.add_block(block("f.ret", TerminatorKind.RETURN))
        return cfg

    def test_single_loop_found(self):
        loops = natural_loops(self._loop_cfg())
        assert len(loops) == 1
        assert loops[0].header == "f.h"
        assert loops[0].body == {"f.h", "f.body"}
        assert loops[0].size == 2
        assert "f.body" in loops[0]

    def test_acyclic_has_no_loops(self):
        from tests.helpers import diamond_program

        cfg = diamond_program().function("main")
        assert natural_loops(cfg) == []

    def test_nesting_depths(self):
        depths = loop_nesting_depths(self._loop_cfg())
        assert depths["f.h"] == 1
        assert depths["f.body"] == 1
        assert depths["f.ret"] == 0

    def test_generated_functions_have_loops(self, compress_workload):
        """compress is loop-heavy by design; at least one hot function
        must contain a natural loop."""
        from repro.synth.generator import SyntheticProgramGenerator

        program = SyntheticProgramGenerator(
            compress_workload.profile
        ).generate()
        total = sum(
            len(natural_loops(cfg)) for cfg in program.functions()
        )
        assert total > 0
