"""Command-line entry point: ``python -m repro.evalx <experiment> [...]``.

Examples::

    python -m repro.evalx table2
    python -m repro.evalx figure7 --quick
    python -m repro.evalx all --tasks 100000
    python -m repro.evalx all --jobs 0 --keep-going --metrics run.jsonl
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.evalx.cli import (
    add_engine_options,
    engine_from_args,
    positive_float,
    positive_int,
)
from repro.evalx.metrics import write_manifest
from repro.evalx.parallel import resolve_jobs
from repro.evalx.registry import (
    ALL_IDS,
    EXPERIMENT_IDS,
    EXTENSION_IDS,
    run_experiment,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evalx",
        description=(
            "Regenerate tables and figures from 'Control Flow Speculation "
            "in Multiscalar Processors' (HPCA 1997)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=(*ALL_IDS, "all", "extensions"),
        help=(
            "which table/figure to regenerate; 'all' runs every paper "
            "experiment, 'extensions' the beyond-paper studies"
        ),
    )
    parser.add_argument(
        "--tasks", type=positive_int, default=None,
        help="override the dynamic task count (trace length)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small traces and sparse sweeps, for smoke runs",
    )
    add_engine_options(parser).add_argument(
        "--cell-timeout", type=positive_float, default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock deadline (pooled runs only); a cell "
            "over it counts as failed"
        ),
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also draw ASCII line charts for figure experiments",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="append each experiment's raw data to FILE as JSON lines",
    )
    args = parser.parse_args(argv)
    engine = engine_from_args(
        parser, args, timeout_seconds=args.cell_timeout
    )
    if args.cell_timeout is not None and resolve_jobs(args.jobs) <= 1:
        # One worker runs serially, where a cell running in the parent
        # process cannot be preempted (parallel._execute_serial).
        print(
            "warning: --cell-timeout is not enforced on the serial "
            "path; pass --jobs 2 or more for per-cell deadlines",
            file=sys.stderr,
        )

    if args.experiment == "all":
        ids = EXPERIMENT_IDS
    elif args.experiment == "extensions":
        ids = EXTENSION_IDS
    else:
        ids = (args.experiment,)

    if args.metrics:
        manifest_path = write_manifest(
            Path(args.metrics).with_suffix(".manifest.json"),
            experiments=ids,
            config={
                "tasks": args.tasks,
                "quick": args.quick,
                "jobs": args.jobs,
                "keep_going": args.keep_going,
                "retries": args.retries,
                "cell_timeout": args.cell_timeout,
                "checkpoint_dir": args.checkpoint_dir,
                "resume": args.resume,
            },
        )
        print(f"[manifest written to {manifest_path}]", file=sys.stderr)

    failed_cells = 0
    with engine["metrics"]:
        for experiment_id in ids:
            started = time.time()
            result = run_experiment(
                experiment_id, n_tasks=args.tasks, quick=args.quick, **engine
            )
            elapsed = time.time() - started
            failed_cells += len(result.failures)
            print(result)
            if args.chart:
                from repro.evalx.charts import charts_for_result

                for chart in charts_for_result(result):
                    print()
                    print(chart)
            if args.json:
                _append_json(args.json, result, elapsed)
            print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
    if failed_cells:
        print(
            f"warning: {failed_cells} cell(s) failed and were reported "
            "as gaps (--keep-going)",
            file=sys.stderr,
        )
        return 1
    return 0


def _append_json(path: str, result, elapsed: float) -> None:
    """Append one experiment's raw data as a JSON line."""
    import json

    record = {
        "experiment": result.experiment_id,
        "title": result.title,
        "elapsed_seconds": round(elapsed, 2),
        "data": result.data,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
