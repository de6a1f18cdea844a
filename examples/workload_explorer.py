"""Workload explorer: inspect a synthetic benchmark like a binary.

Shows what the generator + compiler actually produced for a benchmark:
program summary, validation against its calibration targets, loop
statistics, the hottest tasks with their disassembled headers, and the
dynamic exit-type mix — everything a user would check before trusting
experiment numbers from a workload.

Run:  python examples/workload_explorer.py [benchmark] [n_tasks]
"""

import sys
from collections import Counter

import numpy as np

from repro import load_workload
from repro.cfg.loops import natural_loops
from repro.evalx.report import render_table
from repro.isa.display import format_program_summary, format_task
from repro.isa.metrics import compute_program_metrics, format_metrics
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.trace import CF_TYPE_FROM_CODE
from repro.synth.validate import validate_workload


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "xlisp"
    n_tasks = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
    workload = load_workload(benchmark, n_tasks=n_tasks)
    program = workload.program

    print(format_program_summary(program))
    print()
    print(format_metrics(compute_program_metrics(program)))
    print()

    print(validate_workload(workload))
    print()

    program_cfg = SyntheticProgramGenerator(workload.profile).generate()
    loop_counts = [
        len(natural_loops(cfg)) for cfg in program_cfg.functions()
    ]
    print(
        f"loops: {sum(loop_counts)} natural loops across "
        f"{len(loop_counts)} functions "
        f"(max {max(loop_counts)} in one function)"
    )
    print()

    addrs, freqs = np.unique(workload.trace.task_addr, return_counts=True)
    hottest = sorted(
        zip(freqs.tolist(), addrs.tolist()), reverse=True
    )[:3]
    print("hottest tasks:")
    for count, addr in hottest:
        share = count / len(workload.trace)
        print(f"--- executed {count} times ({share:.1%}) ---")
        print(format_task(program.task(addr)))
    print()

    mix = Counter(
        str(CF_TYPE_FROM_CODE[int(code)])
        for code in workload.trace.cf_type.tolist()
    )
    rows = [
        [name, count, f"{count / len(workload.trace):.1%}"]
        for name, count in mix.most_common()
    ]
    print(render_table(
        ["exit type", "dynamic count", "share"], rows,
        title="dynamic exit mix",
    ))


if __name__ == "__main__":
    main()
