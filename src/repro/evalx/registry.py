"""Experiment registry: id -> driver."""

from __future__ import annotations

import importlib

from repro.errors import ExperimentError
from repro.evalx.parallel import run_sharded
from repro.evalx.result import ExperimentResult

#: Every reproducible table and figure, in paper order.
EXPERIMENT_IDS = (
    "table2",
    "figure3",
    "figure4",
    "figure6",
    "figure7",
    "figure8",
    "figure10",
    "figure11",
    "figure12",
    "table3",
    "table4",
)

#: Extension studies beyond the paper's evaluation (see each module's
#: docstring): history repair policies, RAS depth, CTTB sizing, a
#: PATH+PER tournament, confidence estimation, task granularity, real
#: PATH against ideal GLOBAL/PER, static hints, seed robustness,
#: confidence-gated speculation and §6.1's path-index ablations.
EXTENSION_IDS = (
    "ext_repair",
    "ext_ras",
    "ext_cttb",
    "ext_hybrid",
    "ext_confidence",
    "ext_tasksize",
    "ext_dominance",
    "ext_static",
    "ext_seeds",
    "ext_gating",
    "ext_ablations",
)

#: Search drivers: cell grids parameterised by an external engine (the
#: design-space autotuner dispatches its rungs through these).
SEARCH_IDS = ("tune_rung",)

ALL_IDS = EXPERIMENT_IDS + EXTENSION_IDS + SEARCH_IDS + ("summary",)


def run_experiment(
    experiment_id: str,
    n_tasks: int | None = None,
    quick: bool = False,
    jobs: int | None = None,
    keep_going: bool = False,
    retry=None,
    metrics=None,
    checkpoint=None,
    **kwargs,
) -> ExperimentResult:
    """Run the named experiment and return its result.

    ``n_tasks`` overrides the trace length; ``quick`` shrinks both trace
    and sweep for smoke runs. ``jobs`` fans the experiment's independent
    (benchmark x config) cells over worker processes: ``None`` runs
    serially, ``0`` uses every CPU, and any value produces identical
    results.

    Fault handling and observability: ``keep_going`` degrades failed cells to
    :class:`~repro.evalx.parallel.CellFailure` gaps instead of aborting;
    ``retry`` is a :class:`~repro.evalx.parallel.RetryPolicy` (attempts,
    backoff, per-cell timeout); ``metrics`` is a
    :class:`~repro.evalx.metrics.RunMetrics` recorder; ``checkpoint``
    is a :class:`~repro.evalx.checkpoint.CheckpointStore` that persists
    each completed cell and (in resume mode) serves verified records
    instead of re-running. Extra keyword arguments pass through to the
    driver (e.g. ``benchmarks=("gcc",)`` for figure7/figure10).
    """
    if experiment_id not in ALL_IDS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {ALL_IDS}"
        )
    module = importlib.import_module(
        f"repro.evalx.experiments.{experiment_id}"
    )
    return run_sharded(
        module,
        n_tasks=n_tasks,
        quick=quick,
        jobs=jobs,
        keep_going=keep_going,
        retry=retry,
        metrics=metrics,
        checkpoint=checkpoint,
        **kwargs,
    )
