"""Parallel experiment engine: determinism, ordering, error reporting."""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import (
    Cell,
    RetryPolicy,
    _PooledRun,
    _run_cell_instrumented,
    execute_cells,
    resolve_jobs,
)
from repro.evalx.registry import run_experiment
from repro.utils.memo import int64_column

#: Small traces keep the double (serial + parallel) runs cheap.
_TASKS = 12_000


def _square(x: int) -> int:
    return x * x


def _widen_twice(n: int) -> int:
    """Widen one narrow column twice: one memo miss, then one hit."""
    narrow = np.arange(n, dtype=np.uint8)
    int64_column(narrow)
    return int(int64_column(narrow).sum())


def _boom(x: int) -> int:
    raise ValueError(f"bad input {x}")


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)


class TestExecuteCells:
    def _cells(self, values):
        return [
            Cell(label=f"c{v}", fn=_square, kwargs={"x": v})
            for v in values
        ]

    def test_serial_preserves_cell_order(self):
        assert execute_cells(self._cells([3, 1, 2])) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        cells = self._cells(range(8))
        assert execute_cells(cells, jobs=3) == execute_cells(cells)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_failure_names_the_cell(self, jobs):
        cells = [
            Cell(label="good", fn=_square, kwargs={"x": 2}),
            Cell(label="broken-cell", fn=_boom, kwargs={"x": 7}),
        ]
        with pytest.raises(ExperimentError, match="broken-cell") as info:
            execute_cells(cells, jobs=jobs)
        # The original exception stays attached for debugging.
        assert "bad input 7" in str(info.value)


class TestJobsBitIdentical:
    """run_experiment(..., jobs=N) must equal the serial run exactly."""

    def test_figure7_quick(self):
        serial = run_experiment(
            "figure7", n_tasks=_TASKS, quick=True,
            benchmarks=("gcc", "compress"),
        )
        fanned = run_experiment(
            "figure7", n_tasks=_TASKS, quick=True,
            benchmarks=("gcc", "compress"), jobs=4,
        )
        assert fanned.data == serial.data
        assert fanned.text == serial.text

    def test_table3_quick(self):
        serial = run_experiment("table3", n_tasks=_TASKS, quick=True)
        fanned = run_experiment(
            "table3", n_tasks=_TASKS, quick=True, jobs=4
        )
        assert fanned.data == serial.data
        assert fanned.text == serial.text


class _SubmitBrokenPool:
    """Stands in for a pool whose last worker died just before submit.

    ``ProcessPoolExecutor.submit`` raises ``BrokenProcessPool`` itself
    once the pool is broken — a different entry point from the usual
    ``future.result()`` crash surface.
    """

    def __init__(self, inner):
        self._inner = inner
        self.raised = False

    def submit(self, *args, **kwargs):
        self.raised = True
        raise BrokenProcessPool("worker died before this submit")

    def shutdown(self, **kwargs):
        self._inner.shutdown(**kwargs)


class _AttemptRecorder(RunMetrics):
    """A disabled recorder that remembers every cell attempt."""

    def __init__(self):
        super().__init__(path=None, progress=False)
        self.attempts = []

    def cell_attempt(self, label, status, attempt, **kwargs):
        self.attempts.append((label, attempt, status))


class TestSubmitTimeCrash:
    """A BrokenProcessPool raised *at submit time* must route through
    crash recovery instead of escaping ``run()`` raw."""

    def test_run_recovers_and_completes(self):
        cells = [
            Cell(label=f"c{v}", fn=_square, kwargs={"x": v})
            for v in (2, 3, 4)
        ]
        run = _PooledRun(
            cells, 2, RetryPolicy(), False, RunMetrics.disabled()
        )
        broken = _SubmitBrokenPool(run.pool)
        run.pool = broken
        assert run.run() == [4, 9, 16]
        assert broken.raised
        # Recovery rebuilt the pool in isolated (exact-attribution) mode.
        assert run.isolated

    def test_unrun_cell_is_not_charged_an_attempt(self):
        recorder = _AttemptRecorder()
        cells = [Cell(label="c", fn=_square, kwargs={"x": 6})]
        run = _PooledRun(cells, 1, RetryPolicy(), False, recorder)
        run.pool = _SubmitBrokenPool(run.pool)
        assert run.run() == [36]
        # The aborted submit never ran the cell, so the one real run
        # must count as attempt 1, not 2.
        assert recorder.attempts == [("c", 1, "ok")]


class TestCacheDeltaCounters:
    def test_counter_born_between_snapshots(self, monkeypatch):
        """A cache counter that first appears while the cell runs must
        show up as its own delta, not raise KeyError."""
        snapshots = iter([{}, {"program_builds": 3, "zero": 0}])
        monkeypatch.setattr(
            "repro.evalx.parallel.cache_counters",
            lambda: dict(next(snapshots)),
        )
        outcome = _run_cell_instrumented(
            Cell(label="c", fn=_square, kwargs={"x": 5})
        )
        assert outcome.payload == 25
        assert outcome.cache == {"program_builds": 3}

    def test_memo_counters_are_reported(self):
        outcome = _run_cell_instrumented(
            Cell(label="c", fn=_widen_twice, kwargs={"n": 4})
        )
        assert outcome.payload == 6
        assert outcome.cache == {"memo_misses": 1, "memo_hits": 1}
