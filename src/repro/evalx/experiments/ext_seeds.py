"""Extension: seed robustness of the headline orderings.

The synthetic workloads are calibrated under one generator seed per
benchmark; a fair question is whether the reproduced orderings (PATH <=
GLOBAL etc.) are properties of the workload *structure* or accidents of
the particular seed. This experiment regenerates each benchmark under
alternative seeds (same profile, different random draws) and re-measures
the depth-7 ideal schemes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import format_percent, render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.sim.functional import simulate_exit_prediction
from repro.synth.profiles import get_profile
from repro.synth.workloads import load_workload

_DEFAULT_TASKS = 120_000
_N_SEEDS = 3
_DEPTH = 7


def _cell(name: str, offset: int, tasks: int) -> dict[str, float]:
    """Ideal depth-7 scheme miss rates for one (benchmark, seed) pair."""
    profile = get_profile(name)
    workload = load_workload(
        replace(profile, seed=profile.seed + offset), tasks
    )
    return {
        "global": simulate_exit_prediction(
            workload, IdealGlobalPredictor(_DEPTH)
        ).miss_rate,
        "path": simulate_exit_prediction(
            workload, IdealPathPredictor(_DEPTH)
        ).miss_rate,
        "per": simulate_exit_prediction(
            workload, IdealPerTaskPredictor(_DEPTH)
        ).miss_rate,
    }


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    seed_offsets = (0, 1) if quick else tuple(range(_N_SEEDS))
    # Each other seed is loaded by its cell alone; prewarming it would
    # only serialise its build in the parent, so no prewarm hint.
    return [
        Cell(
            label=f"{name}+{offset}",
            fn=_cell,
            kwargs={"name": name, "offset": offset, "tasks": tasks},
        )
        for name in BENCHMARKS
        for offset in seed_offsets
    ]


def combine(
    cells: list[Cell],
    results: list[dict[str, float]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    rows = []
    data: dict[str, dict[int, dict[str, float]]] = {}
    for cell, point in zip(cells, results):
        name = cell.kwargs["name"]
        offset = cell.kwargs["offset"]
        data.setdefault(name, {})
        if is_failure(point):  # keep-going gap: a "-" row
            rows.append([name, offset, "-", "-", "-", "-"])
            continue
        data[name][offset] = point
        rows.append(
            [
                name,
                offset,
                format_percent(point["global"]),
                format_percent(point["path"]),
                format_percent(point["per"]),
                "yes" if point["path"] <= point["global"] + 0.003
                else "no",
            ]
        )
    text = render_table(
        ["Benchmark", "seed+", "GLOBAL d7", "PATH d7", "PER d7",
         "PATH<=GLOBAL?"],
        rows,
        title="seed robustness of the ideal-scheme orderings",
    )
    return ExperimentResult(
        experiment_id="ext_seeds",
        title="Seed robustness of headline orderings",
        text=text,
        data=data,
    )
