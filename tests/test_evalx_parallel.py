"""Parallel experiment engine: determinism, ordering, error reporting."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
    is_failure,
    resolve_jobs,
)
from repro.evalx.registry import (
    EXPERIMENT_IDS,
    EXTENSION_IDS,
    run_experiment,
)
from repro.utils.memo import int64_column
from tests.helpers import kill_process_group

REPO_ROOT = Path(__file__).resolve().parent.parent

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


#: Runs every paper experiment and extension at 2000 quick tasks, with
#: ``--jobs`` from argv (0 = serial), and prints one line per
#: experiment: its id and its ``data`` as ``--json`` writes it.
_TWIN_SCRIPT = """
import json, sys
from repro.evalx.registry import EXPERIMENT_IDS, EXTENSION_IDS, run_experiment
jobs = int(sys.argv[1]) or None
for experiment_id in EXPERIMENT_IDS + EXTENSION_IDS:
    result = run_experiment(experiment_id, n_tasks=2000, quick=True, jobs=jobs)
    print(experiment_id, json.dumps(result.data, default=str), flush=True)
"""

#: Seconds either side may take before it counts as hung.
_TWIN_TIMEOUT = 600


class TestDeterminismTwin:
    """Each result is a function of (code, seed, config) alone.

    Every paper experiment and extension runs twice, each side in a
    fresh process with the trace cache off: serially under hash seed 0,
    and over two workers under hash seed 1. A global RNG, a clock read,
    set order, or state shared between cells through a module makes the
    two sides differ. The data is compared as JSON text, so a dict
    filled in another order differs too. The autotuner's rung driver
    has its own serial/pooled and resume checks (``test_evalx_tune``);
    ``summary`` only re-runs the drivers checked here.
    """

    def _start(self, hash_seed, jobs):
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            PYTHONHASHSEED=str(hash_seed),
            REPRO_CACHE_DIR="off",
        )
        return subprocess.Popen(
            [sys.executable, "-c", _TWIN_SCRIPT, str(jobs)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def _finish(self, side, deadline):
        try:
            out, err = side.communicate(
                timeout=max(deadline - time.monotonic(), 1)
            )
        except subprocess.TimeoutExpired:
            kill_process_group(side)
            pytest.fail(f"a twin run took over {_TWIN_TIMEOUT}s")
        assert side.returncode == 0, err
        return dict(line.split(" ", 1) for line in out.splitlines())

    def test_serial_and_pooled_runs_print_identical_data(self):
        sides = [self._start(0, 0), self._start(1, 2)]
        deadline = time.monotonic() + _TWIN_TIMEOUT
        try:
            serial, pooled = [
                self._finish(side, deadline) for side in sides
            ]
        finally:
            for side in sides:
                if side.poll() is None:
                    kill_process_group(side)
        ids = list(EXPERIMENT_IDS + EXTENSION_IDS)
        assert list(serial) == list(pooled) == ids
        differ = [eid for eid in serial if serial[eid] != pooled[eid]]
        assert not differ, f"serial and pooled data differ: {differ}"


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


class _SubmitSpyPool:
    """Passes submissions through to a real pool, noting each cell."""

    def __init__(self, inner):
        self._inner = inner
        self.submitted = []

    def submit(self, fn, cell):
        self.submitted.append(cell.label)
        return self._inner.submit(fn, cell)

    def shutdown(self, **kwargs):
        self._inner.shutdown(**kwargs)


class TestUnpicklableCell:
    """A cell that cannot be pickled fails in the parent, before it
    reaches the pool. Handed to the pool, it fails in the pool's feeder
    thread instead, and the interpreter can then hang at exit."""

    def _run(self, keep_going):
        cells = [
            Cell(label="good", fn=_square, kwargs={"x": 3}),
            Cell(label="local", fn=lambda x: x, kwargs={"x": 1}),
        ]
        run = _PooledRun(
            cells, 2, RetryPolicy(), keep_going, RunMetrics.disabled()
        )
        run.pool = _SubmitSpyPool(run.pool)
        return run

    def test_never_reaches_submit(self):
        run = self._run(keep_going=False)
        spy = run.pool
        with pytest.raises(ExperimentError, match="local"):
            run.run()
        assert spy.submitted == ["good"]

    def test_keep_going_returns_the_other_cells(self):
        run = self._run(keep_going=True)
        good, local = run.run()
        assert good == 9
        assert is_failure(local) and local.kind == "error"
        assert "pickle" in local.error.lower()
        assert run.pool.submitted == ["good"]


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
