"""End-to-end integration tests across the whole pipeline."""

import numpy as np
import pytest

from repro.compiler import PartitionConfig, compile_program
from repro.evalx.__main__ import main as evalx_main
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import IdealPathPredictor
from repro.sim.functional import simulate_exit_prediction
from repro.synth.executor import TraceExecutor
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import PROFILES, get_profile
from repro.synth.workloads import Workload, load_workload


class TestPipelineEndToEnd:
    def test_generate_compile_execute_predict(self):
        """The full stack: profile -> CFG -> tasks -> trace -> prediction."""
        profile = get_profile("compress")
        program_cfg = SyntheticProgramGenerator(profile).generate()
        compiled = compile_program(
            program_cfg,
            name="compress",
            config=PartitionConfig(
                max_blocks_per_task=profile.max_blocks_per_task
            ),
        )
        trace = TraceExecutor(compiled, seed=profile.seed).run(5000)
        workload = Workload(
            profile=profile, program=compiled.program, trace=trace
        )
        stats = simulate_exit_prediction(
            workload, PathExitPredictor(DolcSpec.parse("4-5-6-7(2)"))
        )
        assert stats.trials == 5000
        assert 0.0 <= stats.miss_rate < 0.5

    def test_all_profiles_produce_runnable_workloads(self):
        for name in PROFILES:
            workload = load_workload(name, n_tasks=2000)
            assert len(workload.trace) == 2000
            assert workload.trace.distinct_tasks_seen() > 5


class TestDeterminism:
    """Everything downstream of a seed must be bit-identical."""

    def test_trace_reproducible_after_cache_clear(self):
        from repro.synth import workloads

        first = load_workload("compress", n_tasks=3000).trace
        workloads.clear_caches()
        second = load_workload("compress", n_tasks=3000).trace
        np.testing.assert_array_equal(first.task_addr, second.task_addr)
        np.testing.assert_array_equal(first.next_addr, second.next_addr)

    def test_prediction_stats_reproducible(self, compress_workload):
        def run():
            return simulate_exit_prediction(
                compress_workload, IdealPathPredictor(3)
            )

        a, b = run(), run()
        assert a.misses == b.misses
        assert a.states_touched == b.states_touched

    def test_trace_prefix_property(self):
        """A longer run begins with exactly the shorter run's records."""
        short = load_workload("compress", n_tasks=1000).trace
        long = load_workload("compress", n_tasks=2000).trace
        np.testing.assert_array_equal(
            short.task_addr, long.task_addr[:1000]
        )


class TestDiskCache:
    def test_round_trip_through_cache_dir(self, tmp_path, monkeypatch):
        from repro.synth import workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        workloads.clear_caches()
        first = load_workload("compress", n_tasks=1200).trace
        cached_files = list((tmp_path / "cache").glob("*.npz"))
        assert len(cached_files) == 1
        workloads.clear_caches()
        second = load_workload("compress", n_tasks=1200).trace
        np.testing.assert_array_equal(first.task_addr, second.task_addr)
        workloads.clear_caches()

    def test_cache_off(self, tmp_path, monkeypatch):
        from repro.synth import workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        workloads.clear_caches()
        load_workload("compress", n_tasks=800)
        workloads.clear_caches()


class TestCommandLine:
    def test_single_experiment(self, capsys):
        assert evalx_main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "gcc" in out

    def test_tasks_override(self, capsys):
        assert evalx_main(["table2", "--tasks", "1500"]) == 0
        out = capsys.readouterr().out
        assert "1500" in out

    def test_unknown_experiment_exits_nonzero(self):
        with pytest.raises(SystemExit):
            evalx_main(["figure99"])
