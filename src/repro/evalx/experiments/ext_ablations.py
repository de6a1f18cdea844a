"""§6.1's design choices for the real path predictor, ablated on gcc.

The paper builds its 14-bit PHT index as ``6-5-8-9(3)`` and skips PHT
updates for single-exit tasks. Each other configuration undoes one of
those choices on the same gcc trace: ``single_exit_updates`` trains on
single-exit tasks too (only adding aliasing), ``truncated`` fits 14 bits
of path without folding, and ``uniform`` takes 6 bits from every task
instead of tapering them (O=5 < L=8 < C=9) toward older ones.

One cell per configuration: its miss rate and the PHT states touched.
"""

from __future__ import annotations

from repro.evalx.experiments.common import effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import format_percent, render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.sim.functional import simulate_exit_prediction
from repro.synth.workloads import load_workload

_DEFAULT_TASKS = 150_000

#: name -> (D-O-L-C(F) index, train on single-exit tasks?).
_CONFIGS = {
    "paper": ("6-5-8-9(3)", False),
    "single_exit_updates": ("6-5-8-9(3)", True),
    "truncated": ("6-2-2-2(1)", False),
    "uniform": ("6-6-6-6(3)", False),
}


def _cell(spec: str, update_on_single_exit: bool, tasks: int) -> dict:
    """Miss rate and PHT states touched of one configuration on gcc."""
    stats = simulate_exit_prediction(
        load_workload("gcc", n_tasks=tasks),
        PathExitPredictor(DolcSpec.parse(spec),
                          update_on_single_exit=update_on_single_exit),
    )
    return {"miss_rate": stats.miss_rate,
            "states_touched": int(stats.states_touched)}


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    return [
        Cell(
            label=name,
            fn=_cell,
            kwargs={"spec": spec, "update_on_single_exit": update,
                    "tasks": tasks},
            workload=("gcc", tasks),
        )
        for name, (spec, update) in _CONFIGS.items()
    ]


def combine(
    cells: list[Cell],
    results: list[dict],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    rows = []
    data: dict[str, dict] = {}
    for cell, point in zip(cells, results):
        row = [cell.label, cell.kwargs["spec"],
               "yes" if cell.kwargs["update_on_single_exit"] else "no"]
        if is_failure(point):  # keep-going gap: a "-" row
            rows.append(row + ["-", "-"])
            continue
        data[cell.label] = point
        rows.append(row + [format_percent(point["miss_rate"]),
                           point["states_touched"]])
    text = render_table(
        ["Configuration", "Index", "Single-exit updates", "Miss rate",
         "States touched"],
        rows,
        title="gcc, real path predictor (14-bit PHT, depth 6)",
    )
    return ExperimentResult(
        experiment_id="ext_ablations",
        title="Ablations of the path predictor's design choices (§6.1)",
        text=text,
        data=data,
    )
