"""Quickstart: predict task exits on a synthetic gcc workload.

Loads the gcc stand-in workload, builds the paper's depth-7 path-based exit
predictor (8KB PHT, LEH-2 automata), measures its accuracy, and compares it
against the naive task-address-indexed baseline.

Run:  python examples/quickstart.py
"""

from repro import load_workload
from repro.predictors import DolcSpec, PathExitPredictor, SimpleExitPredictor
from repro.sim import simulate_exit_prediction


def main() -> None:
    print("Loading the synthetic gcc workload (50k dynamic tasks)...")
    workload = load_workload("gcc", n_tasks=50_000)
    program = workload.program
    print(
        f"  {program.static_task_count} static tasks, "
        f"{workload.trace.distinct_tasks_seen()} seen, "
        f"{len(workload.trace)} dynamic task executions"
    )

    print("\nPath-based predictor, D-O-L-C(F) = 6-5-8-9(3)  [paper §6.2]")
    path_predictor = PathExitPredictor(DolcSpec.parse("6-5-8-9(3)"))
    path_stats = simulate_exit_prediction(workload, path_predictor)
    print(f"  miss rate: {path_stats.miss_rate:.2%}  "
          f"(multi-exit tasks only: {path_stats.multiway_miss_rate:.2%})")
    print(f"  PHT entries touched: {path_stats.states_touched} "
          f"of {1 << 14}")
    print(f"  storage: {path_stats.storage_bits // 8 // 1024}KB")

    print("\nBaseline: task-address-indexed predictor (no history)")
    simple_stats = simulate_exit_prediction(
        workload, SimpleExitPredictor(index_bits=14)
    )
    print(f"  miss rate: {simple_stats.miss_rate:.2%}")

    improvement = (
        (simple_stats.miss_rate - path_stats.miss_rate)
        / simple_stats.miss_rate
    )
    print(f"\nPath history removes {improvement:.1%} of the misses.")


if __name__ == "__main__":
    main()
