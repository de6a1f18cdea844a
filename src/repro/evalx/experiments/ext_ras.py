"""Extension: return-address-stack depth sweep.

§4.2 cites that "a reasonably deep RAS is nearly perfect in predicting
return addresses". This experiment quantifies "reasonably deep" for each
workload: return-address miss rate of the full header-based task predictor
as the RAS shrinks from 64 entries to 1.
"""

from __future__ import annotations

from repro.evalx.experiments.common import (
    BENCHMARKS,
    SMALL_CTTB_SPEC,
    effective_tasks,
)
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_series
from repro.evalx.result import ExperimentResult
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import HeaderTaskPredictor
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.functional import simulate_task_prediction
from repro.synth.profiles import get_profile
from repro.synth.workloads import load_workload

_DEPTHS = (1, 2, 4, 8, 16, 32, 64)
_QUICK_DEPTHS = (1, 4, 16, 64)
_EXIT_SPEC = "6-5-8-9(3)"


def _cell(name: str, tasks: int, depths: tuple[int, ...]) -> list[float]:
    """Return-address miss rate of one benchmark at each RAS depth."""
    workload = load_workload(name, n_tasks=tasks)
    rates = []
    for depth in depths:
        predictor = HeaderTaskPredictor(
            program=workload.program,
            exit_predictor=PathExitPredictor(
                DolcSpec.parse(_EXIT_SPEC)
            ),
            cttb=CorrelatedTaskTargetBuffer(
                DolcSpec.parse(SMALL_CTTB_SPEC)
            ),
            ras=ReturnAddressStack(depth=depth),
        )
        stats = simulate_task_prediction(workload, predictor)
        rates.append(stats.miss_rate_for("return"))
    return rates


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    depths = _QUICK_DEPTHS if quick else _DEPTHS
    out = []
    for name in BENCHMARKS:
        tasks = effective_tasks(
            n_tasks, quick,
            min(150_000, get_profile(name).default_dynamic_tasks),
        )
        out.append(
            Cell(
                label=name,
                fn=_cell,
                kwargs={"name": name, "tasks": tasks, "depths": depths},
                workload=(name, tasks),
            )
        )
    return out


def combine(
    cells: list[Cell],
    results: list[list[float]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    depths = _QUICK_DEPTHS if quick else _DEPTHS
    series: dict[str, list[float | None]] = {}
    for cell, rates in zip(cells, results):
        series[cell.label] = (
            [None] * len(depths) if is_failure(rates) else rates
        )
    text = render_series(
        "RAS depth", list(depths), series,
        title="return-address miss rate vs RAS depth",
    )
    return ExperimentResult(
        experiment_id="ext_ras",
        title="Return address stack depth sweep",
        text=text,
        data={"depths": list(depths), "series": series},
    )
