"""Figure 7: ideal (alias-free) GLOBAL vs PATH vs PER, per benchmark.

Reproduces Figure 7: miss rate vs history depth for ideal predictors.
Expected shapes (the ``figure7.*`` claims of :mod:`repro.evalx.claims`):
PATH beats GLOBAL on every benchmark; PATH beats PER on four of five; sc
is the exception where per-task cyclic behaviour lets PER win.

One cell per (benchmark, scheme), each sweeping the full depth axis.
"""

from __future__ import annotations

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_series
from repro.evalx.result import ExperimentResult
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.sim.functional import simulate_exit_prediction
from repro.synth.workloads import load_workload

_DEFAULT_TASKS = 200_000
_DEPTHS = tuple(range(0, 8))
_QUICK_DEPTHS = (0, 2, 4, 7)

_SCHEMES = {
    "global": IdealGlobalPredictor,
    "path": IdealPathPredictor,
    "per": IdealPerTaskPredictor,
}


def _cell(
    name: str, scheme: str, depths: tuple[int, ...], tasks: int
) -> list[float]:
    """Miss rate of one ideal scheme across the depth sweep."""
    workload = load_workload(name, n_tasks=tasks)
    cls = _SCHEMES[scheme]
    return [
        simulate_exit_prediction(workload, cls(depth)).miss_rate
        for depth in depths
    ]


def cells(
    n_tasks: int | None = None,
    quick: bool = False,
    benchmarks: tuple[str, ...] = BENCHMARKS,
) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    depths = _QUICK_DEPTHS if quick else _DEPTHS
    return [
        Cell(
            label=f"{name}:{scheme}",
            fn=_cell,
            kwargs={
                "name": name,
                "scheme": scheme,
                "depths": depths,
                "tasks": tasks,
            },
            workload=(name, tasks),
        )
        for name in benchmarks
        for scheme in _SCHEMES
    ]


def combine(
    cells: list[Cell],
    results: list[list[float]],
    n_tasks: int | None = None,
    quick: bool = False,
    benchmarks: tuple[str, ...] = BENCHMARKS,
) -> ExperimentResult:
    depths = list(_QUICK_DEPTHS if quick else _DEPTHS)
    sections = []
    data: dict[str, dict] = {"depths": depths}
    for cell, curve in zip(cells, results):
        name = cell.kwargs["name"]
        if is_failure(curve):  # keep-going gap: a "-" column
            curve = [None] * len(depths)
        data.setdefault(name, {})[cell.kwargs["scheme"]] = curve
    for name in benchmarks:
        series = data[name]
        sections.append(
            render_series("depth", depths, series, title=name.upper())
        )
    return ExperimentResult(
        experiment_id="figure7",
        title="Performance of ideal (alias-free) prediction",
        text="\n\n".join(sections),
        data=data,
    )
