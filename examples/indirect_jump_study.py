"""Indirect-jump target prediction: why the CTTB exists.

Reproduces §5.3's motivating comparison on the two indirect-heavy
workloads: a plain task-address-indexed target buffer thrashes on switches
whose target depends on calling context; indexing the same buffer with the
path-history hash (the CTTB) recovers most of the misses. Also shows the
full next-address picture with per-exit-type breakdowns.

Run:  python examples/indirect_jump_study.py
"""

from repro import load_workload
from repro.evalx.report import format_percent, render_table
from repro.predictors import (
    CorrelatedTaskTargetBuffer,
    DolcSpec,
    HeaderTaskPredictor,
    IdealCorrelatedTargetBuffer,
    PathExitPredictor,
    ReturnAddressStack,
    TaskTargetBuffer,
)
from repro.sim import (
    simulate_indirect_target_prediction,
    simulate_task_prediction,
)

TRACE_LENGTH = 80_000


def target_buffer_comparison(name: str) -> None:
    workload = load_workload(name, n_tasks=TRACE_LENGTH)
    rows = []
    ttb = simulate_indirect_target_prediction(
        workload, TaskTargetBuffer(index_bits=20)
    )
    rows.append(["TTB (infinite, address-indexed)",
                 format_percent(ttb.miss_rate)])
    for config in ("1-0-5-6(1)", "3-5-6-6(2)", "5-5-6-7(3)"):
        stats = simulate_indirect_target_prediction(
            workload, CorrelatedTaskTargetBuffer(DolcSpec.parse(config))
        )
        rows.append([f"CTTB 8KB {config}", format_percent(stats.miss_rate)])
    ideal = simulate_indirect_target_prediction(
        workload, IdealCorrelatedTargetBuffer(depth=3)
    )
    rows.append(["CTTB (ideal, depth 3)", format_percent(ideal.miss_rate)])
    print(render_table(
        ["structure", "indirect-target miss"],
        rows,
        title=f"{name}: {ttb.trials} dynamic indirect exits",
    ))
    print()


def full_prediction_breakdown(name: str) -> None:
    workload = load_workload(name, n_tasks=TRACE_LENGTH)
    predictor = HeaderTaskPredictor(
        program=workload.program,
        exit_predictor=PathExitPredictor(DolcSpec.parse("6-5-8-9(3)")),
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse("5-5-6-7(3)")),
        ras=ReturnAddressStack(depth=32),
    )
    stats = simulate_task_prediction(workload, predictor)
    rows = [
        [cf_type,
         stats.trials_by_type.get(cf_type, 0),
         format_percent(stats.miss_rate_for(cf_type))]
        for cf_type in sorted(stats.trials_by_type)
    ]
    rows.append(["TOTAL", stats.trials,
                 format_percent(stats.address_miss_rate)])
    print(render_table(
        ["actual exit type", "dynamic count", "next-address miss"],
        rows,
        title=f"{name}: full next-task prediction by exit type",
    ))
    print()


def main() -> None:
    for name in ("gcc", "xlisp"):
        target_buffer_comparison(name)
        full_prediction_breakdown(name)


if __name__ == "__main__":
    main()
