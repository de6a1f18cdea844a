"""Tests for the extension experiments: their registration, their pinned
claims (see ``tests/test_reproduction_shapes.py``) and their CLI."""

from repro.evalx.registry import ALL_IDS, EXPERIMENT_IDS, EXTENSION_IDS


class TestRegistryExtensions:
    def test_extension_ids_registered(self):
        for experiment_id in EXTENSION_IDS:
            assert experiment_id in ALL_IDS

    def test_paper_and_extensions_disjoint(self):
        assert not set(EXPERIMENT_IDS) & set(EXTENSION_IDS)


class TestExtTasksize:
    def test_bigger_caps_make_fewer_bigger_tasks(self, pinned):
        pinned("ext_tasksize.bigger_tasks")

    def test_miss_rates_sane(self, pinned):
        pinned("ext_tasksize.miss_rates_sane")


class TestExtHybridExperiment:
    def test_tournament_never_much_worse_than_best(self, pinned):
        pinned("ext_hybrid.tournament_near_best")

    def test_tournament_wins_on_sc(self, pinned):
        """sc is where the components disagree most: PER good, PATH bad.
        The tournament must at least match PATH there."""
        pinned("ext_hybrid.tournament_sc")


class TestExtConfidenceExperiment:
    def test_high_confidence_accuracy_high(self, pinned):
        pinned("ext_confidence.high_accuracy")

    def test_coverage_meaningful(self, pinned):
        pinned("ext_confidence.coverage")


class TestTimingStallAccounting:
    def test_stalls_scale_with_penalty(self, compress_workload):
        from repro.evalx.experiments.table4 import _make_predictor
        from repro.sim.timing import TimingConfig, simulate_timing

        def run(penalty):
            predictor = _make_predictor("Simple", compress_workload)
            return simulate_timing(
                compress_workload,
                predictor,
                config=TimingConfig(task_mispredict_penalty=penalty),
            )

        cheap = run(0)
        costly = run(30)
        assert (
            costly.mispredict_stall_cycles > cheap.mispredict_stall_cycles
        )
        assert 0.0 <= costly.mispredict_stall_fraction < 1.0

    def test_perfect_prediction_has_no_stalls(self, compress_workload):
        from repro.predictors.task_predictor import PerfectTaskPredictor
        from repro.sim.timing import simulate_timing

        result = simulate_timing(
            compress_workload,
            PerfectTaskPredictor(compress_workload.trace),
        )
        assert result.mispredict_stall_cycles == 0
        assert result.mispredict_stall_fraction == 0.0


class TestExtSeeds:
    def test_orderings_mostly_seed_robust(self, pinned):
        pinned("ext_seeds.path_beats_global")

    def test_per_wins_sc_on_every_seed(self, pinned):
        pinned("ext_seeds.per_wins_sc")


class TestCliOptions:
    def test_chart_flag(self, capsys):
        from repro.evalx.__main__ import main as evalx_main

        assert evalx_main(["figure8", "--quick", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "+---" in out  # the chart's x axis

    def test_json_export(self, tmp_path, capsys):
        import json

        from repro.evalx.__main__ import main as evalx_main

        path = tmp_path / "results.jsonl"
        assert evalx_main(
            ["table2", "--quick", "--json", str(path)]
        ) == 0
        record = json.loads(path.read_text().splitlines()[0])
        assert record["experiment"] == "table2"
        assert "gcc" in record["data"]

    def test_extensions_command_listed(self):
        from repro.evalx.registry import ALL_IDS

        assert "ext_seeds" in ALL_IDS
        assert "ext_static" in ALL_IDS


class TestExtGating:
    def test_gating_loses_with_cheap_recovery(self, pinned):
        pinned("ext_gating.cheap_recovery_loses")

    def test_gating_wins_with_expensive_recovery(self, pinned):
        pinned("ext_gating.expensive_recovery_wins")

    def test_gated_timing_consistent(self, compress_workload):
        """Gating must never corrupt the timing recurrences: cycles stay
        positive and IPC bounded by issue capacity."""
        from repro.predictors.confidence import (
            ResettingConfidenceEstimator,
        )
        from repro.predictors.folding import DolcSpec
        from repro.sim.timing import simulate_timing
        from repro.evalx.experiments.table4 import _make_predictor

        result = simulate_timing(
            compress_workload,
            _make_predictor("PATH", compress_workload),
            confidence_gate=ResettingConfidenceEstimator(
                DolcSpec.parse("4-5-6-7(2)"), threshold=4
            ),
        )
        assert result.cycles > 0
        assert 0.0 < result.ipc <= 8.0
