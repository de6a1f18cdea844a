"""Figure 8: ideal (alias-free) CTTB for indirect-target prediction.

Reproduces Figure 8: ideal CTTB miss rate vs history depth. Also reports
the infinite plain-TTB miss rate of §5.3 — the comparison that motivates
path correlation for indirect targets.

One cell per (benchmark, depth) plus a plain-TTB cell per benchmark.
"""

from __future__ import annotations

from repro.evalx.experiments.common import effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_series
from repro.evalx.result import ExperimentResult
from repro.predictors.ttb import (
    IdealCorrelatedTargetBuffer,
    TaskTargetBuffer,
)
from repro.sim.functional import simulate_indirect_target_prediction
from repro.synth.workloads import load_workload

#: The paper concentrates on the two benchmarks with a substantial
#: indirect-exit share.
_BENCHMARKS = ("gcc", "xlisp")
_DEFAULT_TASKS = 250_000
_DEPTHS = tuple(range(0, 8))
_QUICK_DEPTHS = (0, 1, 3, 7)

#: "Infinitely large" plain TTB for the §5.3 comparison point.
_LARGE_TTB_BITS = 22

#: §5.3: the paper's plain-TTB miss rates for indirect targets.
PAPER_TTB_MISS = {"gcc": 0.59, "xlisp": 0.39}


def _ttb_cell(name: str, tasks: int) -> dict[str, float | int]:
    """Infinite plain-TTB miss rate and indirect-exit count."""
    workload = load_workload(name, n_tasks=tasks)
    stats = simulate_indirect_target_prediction(
        workload, TaskTargetBuffer(index_bits=_LARGE_TTB_BITS)
    )
    return {"miss_rate": stats.miss_rate, "trials": stats.trials}


def _cttb_cell(name: str, depth: int, tasks: int) -> float:
    """Ideal-CTTB miss rate at one history depth."""
    workload = load_workload(name, n_tasks=tasks)
    return simulate_indirect_target_prediction(
        workload, IdealCorrelatedTargetBuffer(depth)
    ).miss_rate


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    depths = _QUICK_DEPTHS if quick else _DEPTHS
    out = []
    for name in _BENCHMARKS:
        out.append(
            Cell(
                label=f"{name}:ttb",
                fn=_ttb_cell,
                kwargs={"name": name, "tasks": tasks},
                workload=(name, tasks),
            )
        )
        out.extend(
            Cell(
                label=f"{name}:cttb-d{depth}",
                fn=_cttb_cell,
                kwargs={"name": name, "depth": depth, "tasks": tasks},
                workload=(name, tasks),
            )
            for depth in depths
        )
    return out


def combine(
    cells: list[Cell],
    results: list,
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    depths = list(_QUICK_DEPTHS if quick else _DEPTHS)
    ttb: dict[str, dict] = {}
    cttb: dict[str, list[float]] = {name: [] for name in _BENCHMARKS}
    for cell, payload in zip(cells, results):
        name = cell.kwargs["name"]
        if is_failure(payload):  # keep-going gap
            payload = None
        if cell.fn is _ttb_cell:
            ttb[name] = payload
        else:
            cttb[name].append(payload)
    sections = []
    data: dict[str, dict] = {"depths": depths}
    for name in _BENCHMARKS:
        ttb_info = ttb.get(name)
        ttb_rate = ttb_info["miss_rate"] if ttb_info else None
        series = {
            "ideal CTTB": cttb[name],
            "infinite TTB": [ttb_rate] * len(depths),
        }
        data[name] = {
            "cttb": cttb[name],
            "ttb": ttb_rate,
            "indirect_exits": ttb_info["trials"] if ttb_info else None,
        }
        sections.append(
            render_series("depth", depths, series, title=name.upper())
        )
    return ExperimentResult(
        experiment_id="figure8",
        title="Performance of ideal (alias-free) CTTB",
        text="\n\n".join(sections),
        data=data,
    )
