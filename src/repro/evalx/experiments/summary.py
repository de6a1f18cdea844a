"""Reproduction scoreboard: every claim of :mod:`repro.evalx.claims`.

One cell per experiment that a claim reads; its payload is that
experiment's ``data`` at ``n_tasks`` when given, else in quick mode at
the claims' quick length (:data:`~repro.evalx.claims.QUICK_TASKS`), else
at the driver's default. ``combine`` evaluates every claim; a claim
whose experiment failed under ``--keep-going`` renders as a gap.
"""

from __future__ import annotations

from typing import Any

from repro.evalx import claims
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.registry import run_experiment
from repro.evalx.result import ExperimentResult


def _cell(experiment_id: str, n_tasks: int | None, quick: bool) -> Any:
    return run_experiment(experiment_id, n_tasks=n_tasks, quick=quick).data


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    return [
        Cell(label=eid, fn=_cell, kwargs={
            "experiment_id": eid,
            "n_tasks": n_tasks or (claims.QUICK_TASKS.get(eid) if quick
                                   else None),
            "quick": quick,
        })
        for eid in claims.EXPERIMENTS
    ]


def combine(
    cells: list[Cell],
    results: list[Any],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    text, data = claims.scoreboard({
        cell.label: None if is_failure(payload) else payload
        for cell, payload in zip(cells, results)
    })
    return ExperimentResult("summary", "Reproduction scoreboard", text, data)
