"""Tests for program-level metrics."""

import pytest

from repro.isa.metrics import compute_program_metrics, format_metrics

from tests.helpers import call_program, compile_small, diamond_program


class TestProgramMetrics:
    def test_counts_consistent(self, compress_workload):
        program = compress_workload.program
        metrics = compute_program_metrics(program)
        assert metrics.task_count == program.static_task_count
        assert sum(metrics.arity_histogram.values()) == metrics.task_count
        assert sum(metrics.fanout_histogram.values()) == metrics.task_count
        assert metrics.header_bytes == program.total_header_bits() // 8

    def test_mean_exits_in_legal_range(self, compress_workload):
        metrics = compute_program_metrics(
            compress_workload.program
        )
        assert 1.0 <= metrics.mean_exits_per_task <= 4.0

    def test_static_reachability_includes_entry(self):
        compiled = compile_small(diamond_program())
        metrics = compute_program_metrics(compiled.program)
        assert metrics.statically_reachable >= 1
        assert 0.0 < metrics.static_reach_fraction <= 1.0

    def test_calls_reach_callee_and_return_point(self):
        compiled = compile_small(call_program())
        metrics = compute_program_metrics(compiled.program)
        # main + f are fully connected through call targets and return
        # addresses: everything is statically reachable.
        assert metrics.static_reach_fraction == pytest.approx(1.0)

    def test_cold_functions_statically_unreachable(self, gcc_workload):
        """Cold functions are never called, so static reach must be well
        below 100% for a benchmark with cold code."""
        metrics = compute_program_metrics(gcc_workload.program)
        assert metrics.static_reach_fraction < 0.9

    def test_exit_type_counts_match_figure4_totals(self, gcc_workload):
        from repro.synth.stats_view import compute_stats

        metrics = compute_program_metrics(gcc_workload.program)
        stats = compute_stats(gcc_workload)
        total = sum(metrics.exit_type_counts.values())
        for name, count in metrics.exit_type_counts.items():
            assert stats.static_types[name] == pytest.approx(count / total)

    def test_format_metrics_renders(self, compress_workload):
        metrics = compute_program_metrics(
            compress_workload.program
        )
        text = format_metrics(metrics)
        assert "tasks:" in text
        assert "header overhead" in text
