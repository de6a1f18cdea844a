"""One rung of the design-space autotuner (see :mod:`repro.evalx.tune`).

A rung evaluates a population of :class:`~repro.predictors.design_space.
TuneConfig` candidates on a set of benchmarks at one trace length. It is
an ordinary cells/combine driver — one cell per (benchmark, candidate) —
so every engine facility (``--jobs``, retries, checkpoint resume, fault
injection) applies to a rung with no new machinery.
The tune driver passes ``configs=`` explicitly; the default population
is empty, because a rung without a population is not an experiment.

Cell kwargs are canonical scalars (benchmark name, config key, trace
length), so every rung cell is content-addressable: a resumed search
re-requests the same fingerprints and the checkpoint store serves the
completed ones byte-identically.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import format_percent, render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.design_space import TuneConfig
from repro.sim.functional import simulate_exit_prediction
from repro.synth.workloads import load_workload

_DEFAULT_TASKS = 40_000


def _cell(name: str, config: str, tasks: int) -> dict[str, float]:
    """Miss rate and storage cost for one candidate on one benchmark."""
    tune = TuneConfig.parse(config)
    workload = load_workload(name, n_tasks=tasks)
    stats = simulate_exit_prediction(workload, tune.build_predictor())
    return {
        "miss_rate": stats.miss_rate,
        "storage_bits": tune.storage_bits(),
    }


def cells(
    n_tasks: int | None = None,
    quick: bool = False,
    configs: Sequence[str] = (),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    return [
        Cell(
            label=f"{name}:{config}",
            fn=_cell,
            kwargs={"name": name, "config": config, "tasks": tasks},
            workload=(name, tasks),
        )
        for config in configs
        for name in benchmarks
    ]


def combine(
    cells: list[Cell],
    results: list,
    n_tasks: int | None = None,
    quick: bool = False,
    configs: Sequence[str] = (),
    benchmarks: Sequence[str] = BENCHMARKS,
) -> ExperimentResult:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    grid: dict[str, dict[str, float | None]] = {
        config: {} for config in configs
    }
    for cell, payload in zip(cells, results):
        name = cell.kwargs["name"]
        config = cell.kwargs["config"]
        if is_failure(payload):  # keep-going gap at this candidate
            grid[config][name] = None
        else:
            grid[config][name] = payload["miss_rate"]
    rows = []
    for config in configs:
        storage_kb = TuneConfig.parse(config).storage_bits() / 8192
        misses = [grid[config].get(name) for name in benchmarks]
        row: list[object] = [config, f"{storage_kb:.1f}KB"]
        row.extend(
            "-" if m is None else format_percent(m) for m in misses
        )
        known = [m for m in misses if m is not None]
        row.append(
            format_percent(sum(known) / len(known)) if known else "-"
        )
        rows.append(row)
    text = render_table(
        ["Config", "Storage", *[b.upper() for b in benchmarks], "Mean"],
        rows,
        title=f"Rung at {tasks} tasks ({len(list(configs))} candidates)",
    )
    return ExperimentResult(
        experiment_id="tune_rung",
        title="Design-space rung: exit miss rate per candidate",
        text=text,
        data={
            "configs": list(configs),
            "benchmarks": list(benchmarks),
            "tasks": tasks,
            "grid": grid,
        },
    )
