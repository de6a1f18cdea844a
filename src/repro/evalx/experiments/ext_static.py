"""Extension: profile-guided static hints vs dynamic prediction.

The cheapest conceivable task predictor is a compile-time hint: profile the
program, write each task's most frequent exit into its header. This
experiment measures how much of the paper's dynamic machinery that baseline
captures — i.e. how much of each benchmark's predictability is *bias*
(static gets it) vs *history* (only the dynamic schemes get it).

Training and evaluation are disjoint trace halves, so the static hints are
honestly profiled rather than fitted to the evaluation stream.
"""

from __future__ import annotations

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import format_percent, render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.exit_predictors import (
    PathExitPredictor,
    SimpleExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.static_hints import StaticHintExitPredictor
from repro.sim.functional import (
    batched_exit_prediction_column,
    exit_count_column,
)
from repro.synth.workloads import load_workload

_DEFAULT_TASKS = 200_000
_SPEC = "6-5-8-9(3)"


def _cell(name: str, tasks: int) -> dict[str, float]:
    """Static vs Simple vs PATH second-half miss rates for one benchmark."""
    workload = load_workload(name, n_tasks=tasks)
    half = len(workload.trace) // 2
    static = StaticHintExitPredictor.profile_from_trace(
        workload.trace, training_fraction=0.5
    )
    return {
        "static": _second_half_miss(workload, static, half),
        "simple": _second_half_miss(
            workload, SimpleExitPredictor(index_bits=14), half
        ),
        "path": _second_half_miss(
            workload, PathExitPredictor(DolcSpec.parse(_SPEC)), half
        ),
    }


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    return [
        Cell(
            label=name,
            fn=_cell,
            kwargs={"name": name, "tasks": tasks},
            workload=(name, tasks),
        )
        for name in BENCHMARKS
    ]


def combine(
    cells: list[Cell],
    results: list[dict[str, float]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    rows = []
    data: dict[str, dict[str, float]] = {}
    for cell, point in zip(cells, results):
        name = cell.label
        if is_failure(point):  # keep-going gap: a "-" row
            rows.append([name, "-", "-", "-"])
            continue
        data[name] = point
        rows.append(
            [
                name,
                format_percent(point["static"]),
                format_percent(point["simple"]),
                format_percent(point["path"]),
            ]
        )
    text = render_table(
        ["Benchmark", "static hints", "Simple (dynamic)", f"PATH {_SPEC}"],
        rows,
        title="second-half exit miss rate (hints profiled on first half)",
    )
    return ExperimentResult(
        experiment_id="ext_static",
        title="Profile-guided static hints vs dynamic prediction",
        text=text,
        data=data,
    )


def _second_half_miss(workload, predictor, half: int) -> float:
    """Miss rate over records [half:), running the predictor from cold."""
    trace = workload.trace
    predicted = batched_exit_prediction_column(
        predictor,
        trace.task_addr,
        trace.exit_index,
        exit_count_column(workload, trace.task_addr),
    )
    wrong = predicted[half:] != trace.exit_index[half:]
    return int(wrong.sum()) / wrong.size if wrong.size else 0.0
