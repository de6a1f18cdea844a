"""Table 2: benchmarks, inputs, and task-level characteristics.

Reproduces Table 2: static / dynamic / distinct task counts, with the
paper's columns shown next to measured ones. Dynamic task counts are
scaled down by design (see DESIGN.md); static and distinct counts are
the calibration targets.

One cell per benchmark; see :mod:`repro.evalx.parallel` for the
cells/combine execution model.
"""

from __future__ import annotations

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_table
from repro.evalx.result import ExperimentResult
from repro.synth.profiles import get_profile
from repro.synth.workloads import load_workload


def _cell(name: str, tasks: int) -> dict[str, int]:
    """Task counts for one benchmark."""
    workload = load_workload(name, n_tasks=tasks)
    return {
        "static_tasks": workload.program.static_task_count,
        "dynamic_tasks": workload.trace.dynamic_task_count,
        "distinct_tasks_seen": workload.trace.distinct_tasks_seen(),
    }


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    out = []
    for name in BENCHMARKS:
        tasks = effective_tasks(
            n_tasks, quick, get_profile(name).default_dynamic_tasks
        )
        out.append(
            Cell(
                label=name,
                fn=_cell,
                kwargs={"name": name, "tasks": tasks},
                workload=(name, tasks),
            )
        )
    return out


def combine(
    cells: list[Cell],
    results: list[dict[str, int]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    rows = []
    data: dict[str, dict[str, int]] = {}
    for cell, counts in zip(cells, results):
        name = cell.label
        paper = get_profile(name).paper
        if is_failure(counts):  # keep-going gap: paper columns only
            rows.append(
                [name, paper.input_name,
                 "-", paper.static_tasks,
                 "-", paper.dynamic_tasks,
                 "-", paper.distinct_tasks_seen]
            )
            continue
        data[name] = counts
        rows.append(
            [
                name,
                paper.input_name,
                counts["static_tasks"],
                paper.static_tasks,
                counts["dynamic_tasks"],
                paper.dynamic_tasks,
                counts["distinct_tasks_seen"],
                paper.distinct_tasks_seen,
            ]
        )
    text = render_table(
        [
            "Benchmark", "Input",
            "Static", "(paper)",
            "Dynamic", "(paper)",
            "Distinct", "(paper)",
        ],
        rows,
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Benchmarks, inputs and task information",
        text=text,
        data=data,
    )
