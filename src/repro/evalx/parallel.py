"""Parallel experiment engine: fan (benchmark x config) cells to workers.

Every paper experiment is a grid of independent simulations — benchmarks
crossed with predictor configurations — so each driver module exposes its
grid explicitly:

* ``cells(n_tasks=..., quick=..., **kwargs)`` returns a list of
  :class:`Cell` work units (a module-level function plus picklable
  keyword arguments);
* ``combine(cells, results, ...)`` assembles the cell payloads, in cell
  order, into the final :class:`~repro.evalx.result.ExperimentResult`.

:func:`run_sharded` executes the grid either serially (the default — the
results are byte-identical either way) or across a
``ProcessPoolExecutor`` when ``jobs`` asks for workers. Determinism is
structural: cells share no mutable state, results are assembled in
submission order regardless of completion order, and ``combine`` never
sees which path produced them.

The scheduler is fault-tolerant in the same spirit as the paper's
control-flow speculation: a mispredicted (failed) cell is repaired
locally instead of squashing the whole sweep.

* **Retry with backoff** — :class:`RetryPolicy` grants each cell extra
  attempts with exponential backoff before its failure is final.
* **Per-cell timeout** (pooled runs only) — a cell exceeding
  ``timeout_seconds`` is marked failed; the pool is rebuilt so the stuck
  worker cannot starve the run.
* **Worker-crash recovery** — a ``BrokenProcessPool`` (a worker died,
  e.g. OOM-killed or ``os._exit``) rebuilds the pool once and re-runs
  only the unfinished cells, one at a time, so a second crash names the
  culprit cell exactly instead of surfacing as a bare pool error.
* **Keep-going mode** — with ``keep_going=True`` a cell whose failure is
  final degrades to a typed :class:`CellFailure` payload in its result
  slot; drivers render these as gaps and the sweep completes. Without
  it, the first final failure cancels all queued cells
  (``shutdown(cancel_futures=True)``) and raises promptly.

Two durability layers sit on top of the retry machinery:

* **Checkpoint/resume** — pass a
  :class:`~repro.evalx.checkpoint.CheckpointStore` and every completed
  cell is persisted atomically the moment it finishes; a store opened
  with ``resume=True`` serves verified records up front, so a run
  killed outright (SIGKILL, OOM, CI preemption) restarts and completes
  with byte-identical output. Corrupt or stale records are typed
  :class:`~repro.evalx.checkpoint.CheckpointCorrupt` events that fall
  back to re-execution.
* **Graceful interrupts** — ``run_sharded`` converts SIGINT/SIGTERM
  into an orderly stop: the pool is shut down, metrics are flushed with
  an ``interrupt`` event, the checkpoint store is left consistent, and
  the interrupt re-raises — so Ctrl-C is always resumable.

Observability threads through the same path: pass a
:class:`~repro.evalx.metrics.RunMetrics` and every attempt is recorded
(wall time, worker pid, workload- and memo-cache deltas) as JSON lines.

Fault injection (:mod:`repro.evalx.faults`) hooks the same choke
points: the worker-side cell runner fires planned ``raise``/``hang``/
``kill`` faults, and the parent applies planned record corruption —
inert unless a plan is explicitly armed.

Before fanning out, the scheduler pre-warms each distinct workload in
the parent process so trace generation happens once, not once per
worker: forked workers inherit the in-memory caches, and (when the disk
cache is enabled) spawned workers find warm ``.repro-cache`` entries
written atomically by :mod:`repro.synth.workloads`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import CellExecutionError
from repro.evalx import faults
from repro.evalx.checkpoint import (
    CheckpointCorrupt,
    CheckpointKeyError,
    CheckpointStore,
    cell_fingerprint,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.report import render_failures
from repro.evalx.result import ExperimentResult
from repro.synth.workloads import (
    CHECKPOINT_ENV,
    cache_counters,
    prewarm_workload,
    trace_cache_path,
)
from repro.utils.fsio import env_handoff
from repro.utils.memo import memo_counters


@dataclass(frozen=True)
class Cell:
    """One independent work unit of an experiment grid.

    Attributes:
        label: Human-readable cell name (``"gcc:path"``) used in progress
            and error messages.
        fn: A module-level function (picklable by reference) computing the
            cell's payload from ``kwargs``.
        kwargs: Keyword arguments for ``fn``; must be picklable.
        workload: Optional ``(benchmark, n_tasks)`` this cell will load,
            so the scheduler can pre-warm shared traces before fan-out.
    """

    label: str
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    workload: tuple[str, int | None] | None = None


@dataclass(frozen=True)
class CellFailure:
    """Typed stand-in payload for a cell whose failure became final.

    In ``keep_going`` mode this object occupies the failed cell's result
    slot; ``combine`` implementations render it as a gap (``-``) and the
    final report carries the full list in
    :attr:`~repro.evalx.result.ExperimentResult.failures`.

    Attributes:
        label: The failed cell's label.
        kind: ``"error"`` (the cell raised), ``"timeout"`` (exceeded the
            per-cell deadline), or ``"crash"`` (its worker process died).
        error: Human-readable description of the last failure.
        attempts: Attempts consumed, including the final one.
        wall_seconds: Wall time of the last attempt.
    """

    label: str
    kind: str
    error: str
    attempts: int
    wall_seconds: float


def is_failure(payload: Any) -> bool:
    """True when a result slot holds a :class:`CellFailure` gap."""
    return isinstance(payload, CellFailure)


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-handling knobs for :func:`execute_cells`.

    Attributes:
        retries: Extra attempts granted to a failing cell (0 = fail on
            the first error).
        backoff_seconds: Delay before the first retry; doubles on each
            subsequent one (exponential backoff).
        timeout_seconds: Per-cell wall-clock deadline, enforced only in
            pooled runs (a serial in-process cell cannot be preempted).
    """

    retries: int = 0
    backoff_seconds: float = 0.25
    timeout_seconds: float | None = None


#: Policy used when the caller passes none: fail fast, no deadline.
DEFAULT_RETRY_POLICY = RetryPolicy()


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None`` (the default) means serial; ``0`` means one worker per CPU;
    positive values are taken literally.
    """
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise CellExecutionError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass
class _CellOutcome:
    """What the instrumented worker-side runner ships back per attempt."""

    payload: Any
    worker_pid: int
    wall_seconds: float
    cache: dict[str, int]


def _cache_snapshot() -> dict[str, int]:
    """This process's workload-cache and derived-column-cache counters."""
    return {**cache_counters(), **memo_counters()}


def _run_cell_instrumented(cell: Cell, attempt: int = 1) -> _CellOutcome:
    """Run one cell and measure it (executes inside the worker).

    The fault hook fires first: inert unless a chaos plan is armed
    (see :mod:`repro.evalx.faults`), in which case a planned victim
    attempt raises, hangs, or hard-kills this worker right here.
    """
    faults.fire(cell.label, attempt)
    before = _cache_snapshot()
    started = time.perf_counter()
    payload = cell.fn(**cell.kwargs)
    wall = time.perf_counter() - started
    after = _cache_snapshot()
    return _CellOutcome(
        payload=payload,
        worker_pid=os.getpid(),
        wall_seconds=wall,
        cache={
            k: after[k] - before.get(k, 0)
            for k in after
            if after[k] > before.get(k, 0)
        },
    )


def _wrap_failure(cell: Cell, exc: BaseException) -> CellExecutionError:
    return CellExecutionError(
        f"cell {cell.label!r} ({getattr(cell.fn, '__module__', '?')}) "
        f"failed: {exc!r}",
        cell_label=cell.label,
    )


def _prewarm(cells: Sequence[Cell]) -> None:
    """Generate each distinct workload once, before workers exist."""
    seen: set[tuple[str, int | None]] = set()
    for cell in cells:
        if cell.workload is not None and cell.workload not in seen:
            seen.add(cell.workload)
            prewarm_workload(*cell.workload)


def _default_sigterm() -> None:
    """Pool-worker initializer: let SIGTERM kill the worker outright.

    Forked workers inherit the scheduler's handler (see
    :func:`_graceful_interrupts`), which turns SIGTERM into a
    ``KeyboardInterrupt``. A broken pool's teardown SIGTERMs its
    surviving workers, and one that raised instead of dying could hang
    in its exit handlers, and the scheduler's process with it at exit.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


@dataclass
class _CellState:
    """Scheduler-side bookkeeping for one cell across attempts."""

    index: int
    cell: Cell
    attempts: int = 0
    submitted_at: float = 0.0
    retry_at: float = 0.0


def _backoff(policy: RetryPolicy, attempts: int) -> float:
    return policy.backoff_seconds * (2 ** max(attempts - 1, 0))


def execute_cells(
    cells: Sequence[Cell],
    jobs: int | None = None,
    *,
    keep_going: bool = False,
    retry: RetryPolicy | None = None,
    metrics: RunMetrics | None = None,
    on_result: Callable[[Cell, Any], None] | None = None,
) -> list:
    """Run every cell and return payloads in cell order.

    With ``jobs`` resolving to one worker (or a single cell) this is a
    plain loop; otherwise cells are fanned over a process pool and
    collected as they complete, assembled back into submission order.

    A cell whose failure is final (its :class:`RetryPolicy` attempts are
    exhausted) raises :class:`~repro.errors.CellExecutionError` naming
    the cell — cancelling every still-queued cell first so the error
    surfaces promptly — unless ``keep_going`` is set, in which case its
    result slot holds a :class:`CellFailure` and the sweep completes.

    ``on_result`` is invoked in the parent process the moment a cell's
    payload is final (successful payloads only, never
    :class:`CellFailure` gaps) — the checkpoint store persists cells
    through this hook, so results survive even if the run never
    finishes assembling them.
    """
    policy = retry or DEFAULT_RETRY_POLICY
    recorder = metrics or RunMetrics.disabled()
    n_workers = resolve_jobs(jobs)
    if n_workers <= 1 or len(cells) <= 1:
        return _execute_serial(
            cells, policy, keep_going, recorder, on_result
        )
    return _execute_pooled(
        cells, n_workers, policy, keep_going, recorder, on_result
    )


def _execute_serial(
    cells: Sequence[Cell],
    policy: RetryPolicy,
    keep_going: bool,
    metrics: RunMetrics,
    on_result: Callable[[Cell, Any], None] | None = None,
) -> list:
    """In-process execution with the same retry/keep-going semantics.

    Per-cell timeouts are not enforced here: a cell running in the
    parent process cannot be preempted without threads or signals.
    """
    results = []
    for cell in cells:
        attempts = 0
        while True:
            attempts += 1
            started = time.perf_counter()
            try:
                outcome = _run_cell_instrumented(cell, attempts)
            except Exception as exc:
                wall = time.perf_counter() - started
                final = attempts > policy.retries
                metrics.cell_attempt(
                    cell.label,
                    status="error",
                    attempt=attempts,
                    wall_seconds=wall,
                    final=final,
                    worker_pid=os.getpid(),
                    error=repr(exc),
                )
                if not final:
                    time.sleep(_backoff(policy, attempts))
                    continue
                if keep_going:
                    results.append(
                        CellFailure(
                            label=cell.label,
                            kind="error",
                            error=repr(exc),
                            attempts=attempts,
                            wall_seconds=wall,
                        )
                    )
                    break
                raise _wrap_failure(cell, exc) from exc
            else:
                metrics.cell_attempt(
                    cell.label,
                    status="ok",
                    attempt=attempts,
                    wall_seconds=outcome.wall_seconds,
                    worker_pid=outcome.worker_pid,
                    cache=outcome.cache,
                )
                results.append(outcome.payload)
                if on_result is not None:
                    on_result(cell, outcome.payload)
                break
    return results


#: Result-slot sentinel for a cell that has not finished yet.
_PENDING = object()


class _PooledRun:
    """One fan-out execution over a rebuildable ``ProcessPoolExecutor``.

    The happy path submits every cell up front and drains completions
    with ``wait(FIRST_COMPLETED)``. Fault handling may transition the
    run into *isolated* mode (single worker, one in-flight cell) after a
    worker crash, which keeps crash attribution exact: when the only
    in-flight cell's pool breaks, that cell is the culprit.
    """

    def __init__(
        self,
        cells: Sequence[Cell],
        n_workers: int,
        policy: RetryPolicy,
        keep_going: bool,
        metrics: RunMetrics,
        on_result: Callable[[Cell, Any], None] | None = None,
    ) -> None:
        self.cells = cells
        self.policy = policy
        self.keep_going = keep_going
        self.metrics = metrics
        self.on_result = on_result
        self.max_workers = min(n_workers, len(cells))
        self.results: list[Any] = [_PENDING] * len(cells)
        self.queued: list[_CellState] = [
            _CellState(i, c) for i, c in enumerate(cells)
        ]
        self.in_flight: dict[Future, _CellState] = {}
        self.isolated = False  # post-crash degraded mode
        self.pool = ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_default_sigterm
        )

    # -- pool management ----------------------------------------------

    def _shutdown(self) -> None:
        """Cancel queued work and release the pool without blocking.

        ``cancel_futures=True`` keeps failures prompt: cells submitted
        but not yet started never run; ``wait=False`` avoids blocking on
        cells already running (their results are discarded).
        """
        self.pool.shutdown(wait=False, cancel_futures=True)

    def _rebuild_pool(self, isolate: bool) -> None:
        """Replace the pool after a crash or timeout.

        Cells that were in flight go back to the queue without an
        attempt charged — their worker died through no fault of theirs
        (or was abandoned behind a timed-out neighbour). ``isolate``
        switches the rebuilt pool to a single worker with one in-flight
        cell at a time, which makes crash attribution exact; timeouts
        keep the full fan-out, since attribution is already per-cell.
        """
        self._shutdown()
        for state in self.in_flight.values():
            state.attempts -= 1
            state.retry_at = 0.0
            self.queued.append(state)
        self.in_flight.clear()
        self.queued.sort(key=lambda s: s.index)
        self.isolated = self.isolated or isolate
        self.pool = ProcessPoolExecutor(
            max_workers=1 if self.isolated else self.max_workers,
            initializer=_default_sigterm,
        )

    # -- scheduling ---------------------------------------------------

    def _submit(self, state: _CellState) -> None:
        state.attempts += 1
        state.submitted_at = time.monotonic()
        self.in_flight[
            self.pool.submit(
                _run_cell_instrumented, state.cell, state.attempts
            )
        ] = state

    def _submit_due(self) -> None:
        now = time.monotonic()
        due = [s for s in self.queued if s.retry_at <= now]
        if self.isolated:
            # One in-flight cell at a time: a pool break names it.
            due = due[:1] if not self.in_flight else []
        for state in due:
            self.queued.remove(state)
            try:
                self._submit(state)
            except BrokenProcessPool:
                # The pool broke between a worker death and this submit;
                # the submitted cell never ran, so it is not charged.
                state.attempts -= 1
                state.retry_at = 0.0
                self.queued.append(state)
                self._handle_crash([])
                return

    def _tick_seconds(self) -> float | None:
        """How long ``wait`` may block before a deadline needs service."""
        now = time.monotonic()
        deadlines = [s.retry_at - now for s in self.queued if s.retry_at]
        if self.policy.timeout_seconds is not None:
            deadlines.extend(
                s.submitted_at + self.policy.timeout_seconds - now
                for s in self.in_flight.values()
            )
        if not deadlines:
            return None
        return max(min(deadlines), 0.01)

    # -- fault handling -----------------------------------------------

    def _attempt_failed(
        self,
        state: _CellState,
        kind: str,
        error: str,
        wall_seconds: float,
        exc: BaseException | None,
    ) -> None:
        """Handle one failed attempt: schedule a retry or finalise."""
        final = state.attempts > self.policy.retries
        self.metrics.cell_attempt(
            state.cell.label,
            status=kind,
            attempt=state.attempts,
            wall_seconds=wall_seconds,
            final=final,
            error=error,
        )
        if not final:
            state.retry_at = time.monotonic() + _backoff(
                self.policy, state.attempts
            )
            self.queued.append(state)
            return
        if self.keep_going:
            self.results[state.index] = CellFailure(
                label=state.cell.label,
                kind=kind,
                error=error,
                attempts=state.attempts,
                wall_seconds=wall_seconds,
            )
            return
        self._shutdown()
        if exc is not None:
            raise _wrap_failure(state.cell, exc) from exc
        raise CellExecutionError(
            f"cell {state.cell.label!r} "
            f"({getattr(state.cell.fn, '__module__', '?')}) {error}",
            cell_label=state.cell.label,
        )

    def _handle_crash(self, crashed: list[_CellState]) -> None:
        """A worker died; recover and (if possible) attribute the crash.

        In fan-out mode the culprit among the in-flight cells is
        unknowable, so nobody is charged: the pool is rebuilt and all
        unfinished cells re-run one at a time. In isolated mode exactly
        one cell was in flight, so the crash is charged to it.
        """
        if self.isolated:
            for state in crashed:
                self._attempt_failed(
                    state,
                    kind="crash",
                    error=(
                        "worker process died while running this cell "
                        "(BrokenProcessPool)"
                    ),
                    wall_seconds=time.monotonic() - state.submitted_at,
                    exc=None,
                )
            self._rebuild_pool(isolate=True)
            return
        for state in crashed:
            state.attempts -= 1
            state.retry_at = 0.0
            self.queued.append(state)
        self._rebuild_pool(isolate=True)

    def _handle_timeouts(self) -> None:
        if self.policy.timeout_seconds is None:
            return
        now = time.monotonic()
        expired = [
            (future, state)
            for future, state in self.in_flight.items()
            if now - state.submitted_at > self.policy.timeout_seconds
        ]
        if not expired:
            return
        for future, state in expired:
            del self.in_flight[future]
            future.cancel()  # no-op if already running; harmless
            self._attempt_failed(
                state,
                kind="timeout",
                error=(
                    "cell exceeded the per-cell timeout of "
                    f"{self.policy.timeout_seconds}s"
                ),
                wall_seconds=now - state.submitted_at,
                exc=None,
            )
        # The expired cells' workers are still busy; rebuild so stuck
        # tasks cannot starve the remaining cells of worker slots.
        self._rebuild_pool(isolate=False)

    # -- main loop ----------------------------------------------------

    def run(self) -> list:
        _prewarm(self.cells)
        try:
            while self.queued or self.in_flight:
                self._submit_due()
                if not self.in_flight:
                    # Everything runnable is backing off; sleep to the
                    # earliest retry deadline.
                    now = time.monotonic()
                    wake = min(s.retry_at for s in self.queued)
                    if wake > now:
                        time.sleep(min(wake - now, 0.5))
                    continue
                done, _ = wait(
                    set(self.in_flight),
                    timeout=self._tick_seconds(),
                    return_when=FIRST_COMPLETED,
                )
                crashed: list[_CellState] = []
                for future in done:
                    state = self.in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        crashed.append(state)
                    except Exception as exc:
                        self._attempt_failed(
                            state,
                            kind="error",
                            error=repr(exc),
                            wall_seconds=(
                                time.monotonic() - state.submitted_at
                            ),
                            exc=exc,
                        )
                    else:
                        self.metrics.cell_attempt(
                            state.cell.label,
                            status="ok",
                            attempt=state.attempts,
                            wall_seconds=outcome.wall_seconds,
                            worker_pid=outcome.worker_pid,
                            cache=outcome.cache,
                        )
                        self.results[state.index] = outcome.payload
                        if self.on_result is not None:
                            self.on_result(state.cell, outcome.payload)
                if crashed:
                    self._handle_crash(crashed)
                else:
                    self._handle_timeouts()
            return self.results
        finally:
            self._shutdown()


def _execute_pooled(
    cells: Sequence[Cell],
    n_workers: int,
    policy: RetryPolicy,
    keep_going: bool,
    metrics: RunMetrics,
    on_result: Callable[[Cell, Any], None] | None = None,
) -> list:
    return _PooledRun(
        cells, n_workers, policy, keep_going, metrics, on_result
    ).run()


@contextmanager
def _graceful_interrupts(recorder: RunMetrics):
    """Convert SIGINT/SIGTERM into a clean, resumable stop.

    Both signals raise ``KeyboardInterrupt`` at the scheduler's next
    bytecode boundary; the pool's ``finally`` shutdown runs, an
    ``interrupt`` event is flushed to the metrics stream, and the
    interrupt re-raises. The checkpoint store needs no special handling
    — its writes are atomic and happen per completed cell, so whatever
    finished before the signal is already durable.

    Handlers can only be installed from the main thread; elsewhere the
    default behaviour is kept (a KeyboardInterrupt raised by a cell is
    still recorded).
    """
    received: list[int] = []

    def _handler(signum, frame):
        received.append(signum)
        raise KeyboardInterrupt

    previous: dict[int, Any] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # non-main interpreter quirks
                pass
    try:
        yield
    except KeyboardInterrupt:
        name = (
            signal.Signals(received[-1]).name if received else "SIGINT"
        )
        recorder.interrupted(name)
        raise
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _announce_faults(plan, cells: Sequence[Cell], recorder: RunMetrics):
    """Emit one ``armed`` fault event per trigger aimed at this grid."""
    labels = {cell.label for cell in cells}
    for trigger in plan.triggers:
        if trigger.label in labels:
            recorder.fault_event(
                trigger.label, trigger.action, trigger.attempt, "armed"
            )


def _corrupt_trace_records(
    plan, cells: Sequence[Cell], recorder: RunMetrics
) -> None:
    """Apply planned ``corrupt-trace`` damage before any cell runs."""
    done: set[str] = set()
    for trigger in plan.store_triggers():
        if trigger.action != "corrupt-trace" or trigger.label in done:
            continue
        for cell in cells:
            if cell.label == trigger.label and cell.workload is not None:
                path = trace_cache_path(*cell.workload)
                if path is not None and faults.corrupt_file(path):
                    done.add(trigger.label)
                    recorder.fault_event(
                        cell.label,
                        trigger.action,
                        trigger.attempt,
                        "fired",
                    )
                break


def _prefill_from_store(
    store: CheckpointStore,
    experiment_id: str,
    cells: Sequence[Cell],
    results: list,
    fingerprints: dict[int, str],
    plan,
    recorder: RunMetrics,
) -> None:
    """Fingerprint every cell; serve verified records when resuming.

    Fills ``fingerprints`` for all checkpointable cells (so completions
    get persisted either way) and, when the store was opened with
    ``resume=True``, fills ``results`` slots from verified records.
    Planned ``corrupt-checkpoint`` faults are applied just before the
    load so the corruption-detection path runs against real damage.
    """
    for index, cell in enumerate(cells):
        try:
            fingerprint = cell_fingerprint(experiment_id, cell)
        except CheckpointKeyError as exc:
            recorder.checkpoint_event(
                cell.label, "unfingerprintable", reason=str(exc)
            )
            continue
        fingerprints[index] = fingerprint
        if not store.resume:
            continue
        if plan is not None:
            for trigger in plan.store_triggers():
                if (
                    trigger.action == "corrupt-checkpoint"
                    and trigger.label == cell.label
                    and faults.corrupt_file(store.path_for(fingerprint))
                ):
                    recorder.fault_event(
                        cell.label,
                        trigger.action,
                        trigger.attempt,
                        "fired",
                    )
        record = store.load(fingerprint, cell.label)
        if record is None:
            continue
        if isinstance(record, CheckpointCorrupt):
            recorder.checkpoint_event(
                cell.label, "corrupt", fingerprint, record.reason
            )
            continue
        results[index] = record.payload
        recorder.checkpoint_event(cell.label, "resume", fingerprint)


def run_sharded(
    module,
    n_tasks: int | None = None,
    quick: bool = False,
    jobs: int | None = None,
    keep_going: bool = False,
    retry: RetryPolicy | None = None,
    metrics: RunMetrics | None = None,
    checkpoint: CheckpointStore | None = None,
    **kwargs,
) -> ExperimentResult:
    """Run a cell-structured experiment module end to end.

    ``keep_going``, ``retry`` and ``metrics`` thread straight through to
    :func:`execute_cells`. When failed cells survive (keep-going mode),
    they are listed in the result's ``failures`` field, appended to the
    report text, and recorded under ``data["_failed_cells"]`` so both
    humans and shape-checking tests can see the gaps.

    ``checkpoint`` makes the run durable: every completed cell is
    persisted atomically as it finishes, and a store opened with
    ``resume=True`` skips cells whose verified record already exists —
    so a killed run restarts and completes with byte-identical output
    to an uninterrupted one. SIGINT/SIGTERM are caught, flushed to the
    metrics stream, and re-raised, leaving the store consistent.
    """
    recorder = metrics or RunMetrics.disabled()
    cells = module.cells(n_tasks=n_tasks, quick=quick, **kwargs)
    experiment_id = module.__name__.rsplit(".", 1)[-1]
    recorder.begin_experiment(
        experiment_id, n_cells=len(cells), jobs=resolve_jobs(jobs)
    )
    plan = faults.active_plan()
    if plan is not None:
        _announce_faults(plan, cells, recorder)
        _corrupt_trace_records(plan, cells, recorder)
    results: list[Any] = [_PENDING] * len(cells)
    fingerprints: dict[int, str] = {}
    if checkpoint is not None:
        _prefill_from_store(
            checkpoint,
            experiment_id,
            cells,
            results,
            fingerprints,
            plan,
            recorder,
        )
    remaining = [i for i, slot in enumerate(results) if slot is _PENDING]
    index_of = {id(cells[i]): i for i in remaining}

    def _persist(cell: Cell, payload: Any) -> None:
        fingerprint = fingerprints.get(index_of[id(cell)])
        if fingerprint is None or checkpoint is None:
            return
        saved = checkpoint.save(
            fingerprint, cell.label, experiment_id, payload
        )
        recorder.checkpoint_event(
            cell.label, "saved" if saved else "save-failed", fingerprint
        )

    # Publish the store location so the workload prewarm sweep can reap
    # orphaned record temp files from earlier killed runs.
    handoff = (
        env_handoff(CHECKPOINT_ENV, str(checkpoint.directory))
        if checkpoint is not None
        else nullcontext()
    )
    try:
        with handoff, _graceful_interrupts(recorder):
            executed = execute_cells(
                [cells[i] for i in remaining],
                jobs=jobs,
                keep_going=keep_going,
                retry=retry,
                metrics=recorder,
                on_result=_persist if checkpoint is not None else None,
            )
    finally:
        recorder.end_experiment()
    for index, payload in zip(remaining, executed):
        results[index] = payload
    result = module.combine(
        cells, results, n_tasks=n_tasks, quick=quick, **kwargs
    )
    failures = tuple(r for r in results if is_failure(r))
    if failures:
        result = replace(
            result,
            failures=failures,
            text=result.text + "\n\n" + render_failures(failures),
        )
        result.data["_failed_cells"] = [f.label for f in failures]
    return result
