"""Table 4: IPC from the timing simulator, per prediction scheme.

Reproduces Table 4: IPC per prediction scheme on a 4-unit machine. The
reproduction target is the ordering Simple <= GLOBAL/PER <= PATH <=
Perfect with PATH's largest gains on gcc and xlisp — absolute IPCs
depend on the task-granularity timing model's calibration.

One cell per (benchmark, scheme); the (dataclass, hence picklable)
``TimingConfig`` travels inside each cell's kwargs.
"""

from __future__ import annotations

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.base import NextTaskPredictor
from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
    SimpleExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import (
    HeaderTaskPredictor,
    PerfectTaskPredictor,
)
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.timing import TimingConfig, simulate_timing
from repro.synth.workloads import Workload, load_workload

_DEFAULT_TASKS = 150_000

#: All schemes use a 16KB PHT (15-bit index at 4 bits/entry) and history
#: depth 7, a CTTB for indirects and a RAS for returns, as in §7.
_PATH_SPEC = "7-5-7-8(3)"
_SMALL_CTTB_SPEC = "5-5-6-7(3)"
_INDEX_BITS = 15

#: Paper's Table 4 IPCs for side-by-side reporting.
PAPER_IPC = {
    "gcc": {"Simple": 1.55, "GLOBAL": 1.59, "PER": 1.48, "PATH": 1.68,
            "Perfect": 1.83},
    "compress": {"Simple": 1.44, "GLOBAL": 1.47, "PER": 1.44, "PATH": 1.47,
                 "Perfect": 1.85},
    "espresso": {"Simple": 2.61, "GLOBAL": 2.67, "PER": 2.68, "PATH": 2.70,
                 "Perfect": 2.75},
    "sc": {"Simple": 2.13, "GLOBAL": 2.21, "PER": 2.22, "PATH": 2.22,
           "Perfect": 2.26},
    "xlisp": {"Simple": 1.59, "GLOBAL": 1.77, "PER": 1.76, "PATH": 1.89,
              "Perfect": 2.03},
}

SCHEMES = ("Simple", "GLOBAL", "PER", "PATH", "Perfect")


def _make_predictor(
    scheme: str, workload: Workload
) -> NextTaskPredictor:
    """Build the scheme's next-task predictor over this workload."""
    program = workload.program
    if scheme == "Perfect":
        return PerfectTaskPredictor(workload.trace)
    if scheme == "Simple":
        exit_predictor = SimpleExitPredictor(index_bits=_INDEX_BITS)
    elif scheme == "GLOBAL":
        exit_predictor = GlobalExitPredictor(
            depth=7, index_bits=_INDEX_BITS
        )
    elif scheme == "PER":
        exit_predictor = PerTaskExitPredictor(
            depth=7, index_bits=_INDEX_BITS
        )
    else:  # PATH
        exit_predictor = PathExitPredictor(DolcSpec.parse(_PATH_SPEC))
    return HeaderTaskPredictor(
        program=program,
        exit_predictor=exit_predictor,
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse(_SMALL_CTTB_SPEC)),
        ras=ReturnAddressStack(depth=32),
    )


def _cell(
    name: str, scheme: str, tasks: int, config: TimingConfig
) -> float:
    """IPC of one scheme on one benchmark."""
    workload = load_workload(name, n_tasks=tasks)
    predictor = _make_predictor(scheme, workload)
    return simulate_timing(workload, predictor, config=config).ipc


def cells(
    n_tasks: int | None = None,
    quick: bool = False,
    config: TimingConfig | None = None,
) -> list[Cell]:
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    config = config or TimingConfig()
    return [
        Cell(
            label=f"{name}:{scheme}",
            fn=_cell,
            kwargs={
                "name": name,
                "scheme": scheme,
                "tasks": tasks,
                "config": config,
            },
            workload=(name, tasks),
        )
        for name in BENCHMARKS
        for scheme in SCHEMES
    ]


def combine(
    cells: list[Cell],
    results: list[float],
    n_tasks: int | None = None,
    quick: bool = False,
    config: TimingConfig | None = None,
) -> ExperimentResult:
    data: dict[str, dict[str, float]] = {}
    for cell, ipc in zip(cells, results):
        if is_failure(ipc):  # keep-going gap for this (name, scheme)
            continue
        data.setdefault(cell.kwargs["name"], {})[
            cell.kwargs["scheme"]
        ] = ipc
    rows = []
    for name in BENCHMARKS:
        row: list[object] = [name]
        for scheme in SCHEMES:
            ipc = data.get(name, {}).get(scheme)
            row.append("-" if ipc is None else f"{ipc:.2f}")
            row.append(f"({PAPER_IPC[name][scheme]:.2f})")
        rows.append(row)
    headers = ["Benchmark"]
    for scheme in SCHEMES:
        headers.extend([scheme, "(paper)"])
    text = render_table(headers, rows)
    return ExperimentResult(
        experiment_id="table4",
        title="IPC from the timing simulator",
        text=text,
        data=data,
    )
