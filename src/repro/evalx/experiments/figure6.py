"""Figure 6: comparison of prediction automata on gcc.

Reproduces Figure 6: seven automata under an aggressive path predictor.
The paper's finding — three performance tiers (LE worst; 2-bit VC and
LEH-1 indistinguishable; 3-bit VC and LEH-2 indistinguishable and best)
— is checked by the ``figure6.*`` claims of :mod:`repro.evalx.claims`.

One cell per (depth, automaton); each cell reconstructs the same
``DeterministicRng(depth).fork(spec)`` stream the serial sweep used, so
randomised automata stay bit-identical under any worker count.
"""

from __future__ import annotations

from repro.evalx.experiments.common import effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_series
from repro.evalx.result import ExperimentResult
from repro.predictors.automata import AUTOMATON_SPECS, make_automaton_factory
from repro.predictors.ideal import IdealPathPredictor
from repro.sim.functional import simulate_exit_prediction
from repro.synth.workloads import load_workload
from repro.utils.rng import DeterministicRng

_DEFAULT_TASKS = 150_000
_DEPTHS = tuple(range(0, 10))
_QUICK_DEPTHS = (0, 2, 4, 7)


def _cell(depth: int, spec: str, tasks: int) -> float:
    """Miss rate of one automaton at one history depth on gcc."""
    workload = load_workload("gcc", n_tasks=tasks)
    rng = DeterministicRng(depth).fork(spec)
    predictor = IdealPathPredictor(
        depth, automaton=make_automaton_factory(spec, rng)
    )
    return simulate_exit_prediction(workload, predictor).miss_rate


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    depths = _QUICK_DEPTHS if quick else _DEPTHS
    return [
        Cell(
            label=f"d{depth}:{spec}",
            fn=_cell,
            kwargs={"depth": depth, "spec": spec, "tasks": tasks},
            workload=("gcc", tasks),
        )
        for depth in depths
        for spec in AUTOMATON_SPECS
    ]


def combine(
    cells: list[Cell],
    results: list[float],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    depths = list(_QUICK_DEPTHS if quick else _DEPTHS)
    series: dict[str, list[float]] = {spec: [] for spec in AUTOMATON_SPECS}
    for cell, miss_rate in zip(cells, results):
        # A keep-going gap renders as "-" at its depth; alignment of the
        # other depths is preserved by appending a placeholder.
        series[cell.kwargs["spec"]].append(
            None if is_failure(miss_rate) else miss_rate
        )
    text = render_series(
        "depth", depths, series,
        title="gcc miss rate by automaton (ideal path-based history)",
    )
    return ExperimentResult(
        experiment_id="figure6",
        title="Comparison of prediction automata (gcc)",
        text=text,
        data={"depths": depths, "series": series},
    )
