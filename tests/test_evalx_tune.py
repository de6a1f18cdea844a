"""The design-space autotuner: space, pure decisions, resume identity.

Three layers, mirroring the module split:

* the predictor design space enumerates valid, deduplicated points with
  exact storage accounting (:mod:`repro.predictors.design_space`);
* every search decision — schedule, population, scoring, promotion,
  frontier — is a pure deterministic function of completed rung results
  (:mod:`repro.evalx.tune`);
* therefore a search killed mid-rung and resumed from its checkpoint
  store reaches a byte-identical frontier artifact, which is this PR's
  acceptance criterion, exercised here for two workload profiles.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import PredictorConfigError
from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.registry import run_experiment
from repro.evalx.tune import (
    TuneSpec,
    dump_artifact,
    initial_population,
    pareto_frontier,
    promote,
    render_report,
    run_search,
    rung_schedule,
    score_rung,
)
from repro.predictors.design_space import (
    TuneConfig,
    allocate_dolc,
    enumerate_space,
)
from repro.predictors.folding import DolcSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDesignSpace:
    def test_enumeration_yields_valid_deduplicated_points(self):
        space = enumerate_space()
        keys = [config.key for config in space]
        assert len(keys) == len(set(keys))
        for config in space:
            spec = config.spec()  # parses, so the spec is valid
            assert spec.index_bits >= 1
            assert config.storage_bits() > 0

    def test_enumeration_order_is_reproducible(self):
        first = [config.key for config in enumerate_space()]
        assert first == [config.key for config in enumerate_space()]

    def test_allocation_respects_recency_heuristic(self):
        for depth in range(2, 8):
            for bits in (10, 12, 14):
                for folds in (1, 2, 3):
                    spec = allocate_dolc(depth, bits, folds)
                    if spec is None:
                        continue
                    assert spec.index_bits == bits
                    assert spec.older_bits <= spec.last_bits
                    assert spec.last_bits <= spec.current_bits

    def test_depth_zero_allocation(self):
        assert allocate_dolc(0, 12, 1) == DolcSpec(0, 0, 0, 12, 1)
        assert allocate_dolc(0, 12, 2) is None  # nothing to fold

    def test_storage_accounts_for_automaton_width(self):
        entries = DolcSpec.parse("2-4-5-5(1)").table_entries
        le = TuneConfig("2-4-5-5(1)", "LE")
        leh3 = TuneConfig("2-4-5-5(1)", "LEH-3")
        assert le.storage_bits() == entries * 2
        assert leh3.storage_bits() == entries * 5

    def test_parse_rejects_bad_keys(self):
        with pytest.raises(PredictorConfigError):
            TuneConfig.parse("not-a-spec/LEH-2")
        with pytest.raises(PredictorConfigError):
            TuneConfig.parse("2-4-5-5(1)/NOSUCH")


class TestSearchDecisions:
    """Schedule, scoring, promotion, frontier: pure and deterministic."""

    def test_schedule_hits_both_endpoints(self):
        spec = TuneSpec(rungs=3, rung0_tasks=1_000, final_tasks=9_000)
        schedule = rung_schedule(spec)
        assert schedule[0] == 1_000
        assert schedule[-1] == 9_000
        assert list(schedule) == sorted(schedule)
        assert rung_schedule(
            TuneSpec(rungs=1, rung0_tasks=500, final_tasks=9_000)
        ) == (9_000,)

    def test_population_is_seeded_and_sorted(self):
        spec = TuneSpec(budget=5, seed=3)
        population = initial_population(spec)
        assert len(population) == 5
        assert population == sorted(population)
        assert population == initial_population(spec)
        assert population != initial_population(
            TuneSpec(budget=5, seed=4)
        )

    def test_score_rung_drops_candidates_with_gaps(self):
        grid = {
            "a": {"gcc": 0.1, "sc": 0.3},
            "b": {"gcc": 0.2, "sc": None},
            "c": {"gcc": 0.4},
        }
        scored = score_rung(grid, ["a", "b", "c"], ["gcc", "sc"])
        assert scored == [
            ("a", pytest.approx(0.2)),
            ("b", None),
            ("c", None),
        ]

    def test_promote_ranks_ties_on_key(self):
        scored = [("b", 0.2), ("a", 0.2), ("d", 0.1), ("c", None)]
        assert promote(scored, eta=2) == ["d", "a"]
        # keep overrides the halving; failures still never advance.
        assert promote(scored, eta=2, keep=10) == ["d", "a", "b"]

    def test_promote_keeps_at_least_one(self):
        assert promote([("a", 0.5)], eta=4) == ["a"]

    def test_pareto_frontier_drops_dominated_points(self):
        points = [
            ("cheap-bad", 100, 0.30),
            ("mid-good", 200, 0.10),
            ("mid-worse", 200, 0.12),  # dominated at equal storage
            ("big-worse", 400, 0.20),  # dominated outright
            ("big-best", 800, 0.05),
        ]
        frontier = pareto_frontier(points)
        assert [p["config"] for p in frontier] == [
            "cheap-bad", "mid-good", "big-best",
        ]
        assert frontier[0]["storage_bits"] == 100


class TestTuneRungDriver:
    def test_cells_one_per_benchmark_and_config(self):
        from repro.evalx.experiments import tune_rung

        configs = ("0-0-0-10(1)/LE", "1-0-5-5(1)/LEH-2")
        cells = tune_rung.cells(
            n_tasks=500, configs=configs, benchmarks=("gcc", "sc")
        )
        assert [cell.label for cell in cells] == [
            "gcc:0-0-0-10(1)/LE",
            "sc:0-0-0-10(1)/LE",
            "gcc:1-0-5-5(1)/LEH-2",
            "sc:1-0-5-5(1)/LEH-2",
        ]

    def test_empty_population_combines_to_empty_report(self):
        from repro.evalx.experiments import tune_rung

        result = tune_rung.combine([], [], n_tasks=500)
        assert result.experiment_id == "tune_rung"
        assert result.text
        assert result.data["grid"] == {}

    def test_rung_runs_and_grids_miss_rates(self):
        configs = ("0-0-0-10(1)/LE", "2-4-5-5(1)/LEH-2")
        result = run_experiment(
            "tune_rung",
            n_tasks=1_000,
            configs=configs,
            benchmarks=("gcc",),
        )
        grid = result.data["grid"]
        for config in configs:
            assert 0.0 <= grid[config]["gcc"] <= 1.0


def _tiny_spec(benchmarks) -> TuneSpec:
    return TuneSpec(
        benchmarks=benchmarks,
        budget=4,
        eta=2,
        rungs=2,
        rung0_tasks=800,
        final_tasks=1_500,
        seed=1,
    )


#: Two workload profiles for the resume byte-identity criterion.
_PROFILES = (("gcc", "compress"), ("sc", "xlisp"))


class TestSearchResumeIdentity:
    """Killed-and-resumed searches replay byte-identically."""

    @pytest.mark.parametrize("benchmarks", _PROFILES)
    def test_resume_after_partial_rung_is_byte_identical(
        self, tmp_path, benchmarks
    ):
        spec = _tiny_spec(benchmarks)
        baseline = dump_artifact(run_search(spec))
        ckpt = tmp_path / "ckpt"
        checkpointed = dump_artifact(
            run_search(
                spec, checkpoint=CheckpointStore(ckpt, resume=False)
            )
        )
        assert checkpointed == baseline
        # Simulate a kill mid-search: drop a slice of the completed
        # records (spanning both rungs) and resume from the rest.
        records = sorted(ckpt.glob("*.ckpt.json"))
        assert len(records) >= 8
        for record in records[::3]:
            record.unlink()
        resumed = dump_artifact(
            run_search(
                spec, checkpoint=CheckpointStore(ckpt, resume=True)
            )
        )
        assert resumed == baseline

    def test_artifact_promotions_match_across_jobs_modes(self, tmp_path):
        spec = _tiny_spec(("gcc",))
        serial = run_search(spec)
        pooled = run_search(spec, jobs=2)
        assert dump_artifact(pooled) == dump_artifact(serial)
        assert [r["promoted"] for r in pooled["rungs"]] == [
            r["promoted"] for r in serial["rungs"]
        ]

    def test_report_renders_every_benchmark(self):
        spec = _tiny_spec(("gcc", "compress"))
        artifact = run_search(spec)
        report = render_report(artifact)
        assert "GCC" in report and "COMPRESS" in report
        assert "Final ranking" in report


@pytest.mark.slow
class TestKillMidRungResume:
    """SIGKILL a live search mid-rung; --resume must replay it exactly."""

    def test_sigkilled_search_resumes_byte_identically(self, tmp_path):
        args = [
            sys.executable, "-m", "repro.evalx.tune",
            "--benchmarks", "gcc", "compress",
            "--budget", "4", "--eta", "2", "--rungs", "2",
            "--rung0-tasks", "800", "--final-tasks", "1500",
            "--seed", "1", "--jobs", "2",
        ]
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        clean_ckpt = tmp_path / "clean-ckpt"
        clean_out = tmp_path / "clean.json"
        subprocess.run(
            [*args, "--checkpoint-dir", str(clean_ckpt),
             "--out", str(clean_out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        ckpt = tmp_path / "ckpt"
        victim = subprocess.Popen(
            [*args, "--checkpoint-dir", str(ckpt),
             "--out", str(tmp_path / "never.json")],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(list(ckpt.glob("*.ckpt.json"))) >= 3:
                    break
                if victim.poll() is not None:
                    pytest.fail("search finished before it was killed")
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint records appeared")
        finally:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        assert not (tmp_path / "never.json").exists()
        resumed_out = tmp_path / "resumed.json"
        subprocess.run(
            [*args, "--checkpoint-dir", str(ckpt), "--resume",
             "--out", str(resumed_out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        assert resumed_out.read_bytes() == clean_out.read_bytes()
        artifact = json.loads(resumed_out.read_text())
        clean = json.loads(clean_out.read_text())
        assert [r["promoted"] for r in artifact["rungs"]] == [
            r["promoted"] for r in clean["rungs"]
        ]
