"""Fault tolerance and observability of the parallel experiment engine.

Covers the failure path end to end: prompt cancellation of queued cells,
keep-going degradation to :class:`CellFailure` gaps, retry with backoff,
per-cell timeouts, worker-crash recovery and attribution, metrics JSONL,
the run manifest, and argparse-level ``--jobs`` validation.
"""

from __future__ import annotations

import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.errors import CellExecutionError, ExperimentError
from repro.evalx.metrics import RunMetrics, write_manifest
from repro.evalx.parallel import (
    Cell,
    CellFailure,
    RetryPolicy,
    execute_cells,
    is_failure,
    run_sharded,
)
from repro.evalx.registry import ALL_IDS
from repro.evalx.result import ExperimentResult


# -- picklable cell functions (workers import this module) -------------

def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"bad input {x}")


def _sleep(seconds: float) -> str:
    time.sleep(seconds)
    return "slept"


def _exit_worker() -> None:
    os._exit(17)  # simulates an OOM-killed / segfaulted worker


def _flaky(counter_path: str, fail_times: int, value: int) -> int:
    """Fail the first ``fail_times`` calls, then succeed (cross-process)."""
    calls = 0
    if os.path.exists(counter_path):
        calls = int(open(counter_path).read())
    with open(counter_path, "w") as handle:
        handle.write(str(calls + 1))
    if calls < fail_times:
        raise RuntimeError(f"flaky failure #{calls}")
    return value


def _cells(values) -> list[Cell]:
    return [
        Cell(label=f"c{v}", fn=_square, kwargs={"x": v}) for v in values
    ]


class TestPromptFailure:
    """Satellite: queued cells are cancelled when an earlier cell fails."""

    def test_failure_surfaces_before_queued_slow_cell_runs(self):
        # Two workers: the failing and fast cells start, the slow cell
        # is queued behind them. Its future must be cancelled, not run.
        cells = [
            Cell(label="failing", fn=_boom, kwargs={"x": 1}),
            Cell(label="fast", fn=_square, kwargs={"x": 2}),
            Cell(label="slow-queued", fn=_sleep, kwargs={"seconds": 30}),
        ]
        started = time.monotonic()
        with pytest.raises(ExperimentError, match="failing"):
            execute_cells(cells, jobs=2)
        assert time.monotonic() - started < 10


class TestKeepGoing:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_failed_cell_degrades_to_typed_gap(self, jobs):
        cells = [
            Cell(label="a", fn=_square, kwargs={"x": 2}),
            Cell(label="broken-cell", fn=_boom, kwargs={"x": 7}),
            Cell(label="b", fn=_square, kwargs={"x": 3}),
        ]
        results = execute_cells(cells, jobs=jobs, keep_going=True)
        assert results[0] == 4 and results[2] == 9
        failure = results[1]
        assert is_failure(failure)
        assert failure.label == "broken-cell"
        assert failure.kind == "error"
        assert "bad input 7" in failure.error
        assert failure.attempts == 1


class TestRetry:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_flaky_cell_succeeds_after_retries(self, tmp_path, jobs):
        counter = str(tmp_path / f"flaky-{jobs}")
        cells = [
            Cell(
                label="flaky",
                fn=_flaky,
                kwargs={
                    "counter_path": counter,
                    "fail_times": 2,
                    "value": 42,
                },
            ),
            Cell(label="steady", fn=_square, kwargs={"x": 5}),
        ]
        policy = RetryPolicy(retries=3, backoff_seconds=0.01)
        assert execute_cells(cells, jobs=jobs, retry=policy) == [42, 25]

    def test_retries_exhausted_still_names_cell(self, tmp_path):
        counter = str(tmp_path / "always")
        cells = [
            Cell(
                label="hopeless",
                fn=_flaky,
                kwargs={
                    "counter_path": counter,
                    "fail_times": 99,
                    "value": 0,
                },
            ),
            Cell(label="steady", fn=_square, kwargs={"x": 5}),
        ]
        policy = RetryPolicy(retries=2, backoff_seconds=0.01)
        with pytest.raises(CellExecutionError, match="hopeless") as info:
            execute_cells(cells, jobs=2, retry=policy)
        assert info.value.cell_label == "hopeless"
        assert int(open(counter).read()) == 3  # 1 attempt + 2 retries


class TestWorkerCrash:
    """Satellite: a dead worker surfaces as a named cell, not a bare
    ``BrokenProcessPool``; keep-going still returns partial results."""

    def _cells(self):
        return [
            Cell(label="ok-1", fn=_square, kwargs={"x": 2}),
            Cell(label="crash-cell", fn=_exit_worker),
            Cell(label="ok-2", fn=_square, kwargs={"x": 3}),
        ]

    def test_crash_raises_experiment_error_naming_cell(self):
        with pytest.raises(ExperimentError, match="crash-cell") as info:
            execute_cells(self._cells(), jobs=2)
        assert isinstance(info.value, CellExecutionError)
        assert info.value.cell_label == "crash-cell"

    def test_crash_with_keep_going_returns_partial_results(self):
        results = execute_cells(self._cells(), jobs=2, keep_going=True)
        assert results[0] == 4 and results[2] == 9
        assert is_failure(results[1])
        assert results[1].kind == "crash"
        assert results[1].label == "crash-cell"


class TestTimeout:
    def test_timed_out_cell_becomes_gap_and_rest_completes(self):
        cells = [
            Cell(label="stuck", fn=_sleep, kwargs={"seconds": 3}),
            Cell(label="quick", fn=_square, kwargs={"x": 4}),
        ]
        policy = RetryPolicy(timeout_seconds=0.4)
        started = time.monotonic()
        results = execute_cells(
            cells, jobs=2, keep_going=True, retry=policy
        )
        assert results[1] == 16
        assert is_failure(results[0])
        assert results[0].kind == "timeout"
        assert time.monotonic() - started < 3  # did not wait out the sleep


# -- run_sharded end to end: gaps in the report, metrics JSONL ---------

def _fake_cells(n_tasks=None, quick=False):
    return [
        Cell(label="good", fn=_square, kwargs={"x": 3}),
        Cell(label="raiser", fn=_boom, kwargs={"x": 9}),
        Cell(label="crasher", fn=_exit_worker),
    ]


def _fake_combine(cells, results, n_tasks=None, quick=False):
    shown = [
        "-" if is_failure(payload) else str(payload)
        for payload in results
    ]
    return ExperimentResult(
        experiment_id="faulty",
        title="injected-fault fixture",
        text=" ".join(shown),
        data={"values": shown},
    )


FAKE_MODULE = SimpleNamespace(
    __name__="tests.faulty", cells=_fake_cells, combine=_fake_combine
)


class TestRunShardedFaults:
    """The ISSUE's acceptance scenario: one raising cell plus one
    worker-killing cell under ``--jobs 2 --keep-going``."""

    def test_keep_going_reports_gaps_and_metrics(self, tmp_path):
        metrics_path = tmp_path / "metrics.jsonl"
        with RunMetrics(path=metrics_path, progress=False) as metrics:
            result = run_sharded(
                FAKE_MODULE, jobs=2, keep_going=True, metrics=metrics
            )
        assert result.text.startswith("9 - -")
        assert "FAILED CELLS (2)" in result.text
        assert [f.label for f in result.failures] == ["raiser", "crasher"]
        assert {f.kind for f in result.failures} == {"error", "crash"}
        assert result.data["_failed_cells"] == ["raiser", "crasher"]

        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        events = [r["event"] for r in records]
        assert events[0] == "experiment_start"
        assert events[-1] == "experiment"
        cell_records = [r for r in records if r["event"] == "cell"]
        assert {r["cell"] for r in cell_records} == {
            "good", "raiser", "crasher"
        }
        ok = next(r for r in cell_records if r["cell"] == "good")
        assert ok["status"] == "ok" and ok["worker_pid"] > 0
        assert ok["wall_seconds"] >= 0
        summary = records[-1]
        assert summary["cells"] == 3 and summary["failed"] == 2

    def test_without_keep_going_fails_naming_a_cell(self):
        with pytest.raises(ExperimentError) as info:
            run_sharded(FAKE_MODULE, jobs=2)
        assert isinstance(info.value, CellExecutionError)
        assert info.value.cell_label in ("raiser", "crasher")

    def test_fault_free_run_has_no_failure_section(self):
        module = SimpleNamespace(
            __name__="tests.clean",
            cells=lambda n_tasks=None, quick=False: _cells([1, 2, 3]),
            combine=_fake_combine,
        )
        serial = run_sharded(module)
        pooled = run_sharded(module, jobs=2)
        assert serial.text == pooled.text == "1 4 9"
        assert serial.failures == pooled.failures == ()
        assert "_failed_cells" not in serial.data


class TestManifest:
    def test_manifest_captures_config_and_seeds(self, tmp_path):
        path = write_manifest(
            tmp_path / "run.manifest.json",
            experiments=["table2", "figure7"],
            config={"jobs": 2, "quick": True},
        )
        manifest = json.loads(path.read_text())
        assert manifest["experiments"] == ["table2", "figure7"]
        assert manifest["config"]["jobs"] == 2
        assert set(manifest["seeds"]) == {
            "gcc", "compress", "espresso", "sc", "xlisp"
        }
        assert "git_sha" in manifest and "python" in manifest


class TestJobsArgumentValidation:
    """Satellite: bad ``--jobs`` is rejected by argparse, not deep in
    ``resolve_jobs`` after cells are built."""

    def _run(self, argv, capsys):
        from repro.evalx.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(argv)
        return info.value.code, capsys.readouterr().err

    def test_negative_jobs_rejected_with_clear_message(self, capsys):
        code, err = self._run(["table2", "--jobs", "-2"], capsys)
        assert code == 2
        assert "--jobs must be >= 0" in err

    def test_absurd_jobs_rejected(self, capsys):
        code, err = self._run(["table2", "--jobs", "99999"], capsys)
        assert code == 2
        assert "sanity cap" in err

    def test_non_integer_jobs_rejected(self, capsys):
        code, err = self._run(["table2", "--jobs", "many"], capsys)
        assert code == 2
        assert "integer" in err


class TestRobustnessFlagValidation:
    """Satellite: every fault-handling knob is validated by argparse —
    the error arrives before any trace is generated."""

    def _run(self, argv, capsys):
        from repro.evalx.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(argv)
        return info.value.code, capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        code, err = self._run(["table2", "--retries", "-1"], capsys)
        assert code == 2
        assert ">= 0" in err

    def test_non_integer_retries_rejected(self, capsys):
        code, err = self._run(["table2", "--retries", "two"], capsys)
        assert code == 2
        assert "integer" in err

    def test_nonpositive_timeout_rejected(self, capsys):
        code, err = self._run(
            ["table2", "--cell-timeout", "-3"], capsys
        )
        assert code == 2
        assert "positive" in err

    def test_timeout_on_one_cpu_warns_it_is_not_enforced(
        self, capsys, monkeypatch
    ):
        """``--jobs 0`` on a one-CPU machine resolves to one worker,
        which runs serially and enforces no deadline."""
        from repro.evalx.__main__ import main

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(
            ["table2", "--quick", "--tasks", "2000", "--jobs", "0",
             "--cell-timeout", "5"]
        ) == 0
        assert "--cell-timeout is not enforced" in capsys.readouterr().err

    def test_resume_without_checkpoint_dir_rejected(self, capsys):
        code, err = self._run(["table2", "--resume"], capsys)
        assert code == 2
        assert "--resume requires --checkpoint-dir" in err

    @pytest.mark.parametrize("tasks", ["0", "-5"])
    def test_nonpositive_tasks_rejected(self, tasks, capsys):
        code, err = self._run(["table2", "--tasks", tasks], capsys)
        assert code == 2
        assert "--tasks" in err and ">= 1" in err


class TestCombineToleratesFailures:
    """Every cells/combine driver must render gaps, not crash."""

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_all_failed_grid_still_combines(self, experiment_id):
        import importlib

        module = importlib.import_module(
            f"repro.evalx.experiments.{experiment_id}"
        )
        cells = module.cells(n_tasks=2000, quick=True)
        failures = [
            CellFailure(
                label=cell.label,
                kind="error",
                error="injected",
                attempts=1,
                wall_seconds=0.0,
            )
            for cell in cells
        ]
        result = module.combine(cells, failures, n_tasks=2000, quick=True)
        assert result.experiment_id == experiment_id
        assert result.text  # renders something, with gaps

    def test_extension_drivers_all_speak_cells_combine(self):
        """Every registered driver has ``cells`` and ``combine``: a
        monolithic ``run()`` would pass ``--jobs``, ``--keep-going``,
        retries, checkpoints and metrics by."""
        import importlib

        monolithic = []
        for experiment_id in ALL_IDS:
            module = importlib.import_module(
                f"repro.evalx.experiments.{experiment_id}"
            )
            if not (hasattr(module, "cells") and hasattr(module, "combine")):
                monolithic.append(experiment_id)
        assert monolithic == []
