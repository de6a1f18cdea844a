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
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path

from repro.evalx.registry import (
    ALL_IDS,
    EXPERIMENT_IDS,
    EXTENSION_IDS,
    run_experiment,
)

#: Upper bound for ``--jobs``: anything beyond this is a typo, not a
#: machine. Rejected at the argparse layer so the error arrives before
#: any cells are built.
MAX_JOBS = 1024


def _jobs_arg(text: str) -> int:
    """Argparse type for ``--jobs``: an int in [0, MAX_JOBS]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs expects an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one worker per CPU), got {value}"
        )
    if value > MAX_JOBS:
        raise argparse.ArgumentTypeError(
            f"--jobs {value} exceeds the sanity cap of {MAX_JOBS} workers"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """Argparse type for sizes (``--tasks``): an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type for count flags (``--retries``): an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {value}"
        )
    return value


def _fault_spec(text: str) -> str:
    """Argparse type for ``--inject-faults``: grammar-checked up front."""
    from repro.evalx.faults import FaultSpecError, parse_spec

    try:
        parse_spec(text)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


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
        "--tasks", type=_positive_int, default=None,
        help="override the dynamic task count (trace length)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small traces and sparse sweeps, for smoke runs",
    )
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help=(
            "fan independent (benchmark x config) cells over N worker "
            "processes; 0 = one per CPU; default serial. Results are "
            "identical regardless of N"
        ),
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help=(
            "don't abort a sweep on a failed cell: record it as a gap, "
            "finish the rest, and exit nonzero at the end"
        ),
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=0, metavar="N",
        help="extra attempts granted to each failing cell (default 0)",
    )
    parser.add_argument(
        "--retry-backoff", type=_positive_float, default=0.25,
        metavar="SECONDS",
        help=(
            "delay before a cell's first retry; doubles per retry "
            "(default 0.25)"
        ),
    )
    parser.add_argument(
        "--cell-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock deadline (pooled runs only); a cell "
            "over it counts as failed"
        ),
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help=(
            "append per-cell/per-experiment JSONL metrics to FILE and "
            "write a run manifest next to it"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help=(
            "persist every completed cell to DIR atomically (crash-safe "
            "run store); combine with --resume to skip cells whose "
            "verified record already exists"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "serve verified records from --checkpoint-dir instead of "
            "re-running their cells; a killed run restarted this way "
            "completes with byte-identical output"
        ),
    )
    parser.add_argument(
        "--inject-faults", type=_fault_spec, default=None, metavar="SPEC",
        help=(
            "chaos harness: deterministically inject faults into the run "
            "(e.g. 'kill@gcc*,raise@*#2,hang(30)@sc*'); see "
            "repro.evalx.faults for the grammar. Inert unless given"
        ),
    )
    parser.add_argument(
        "--fault-seed", type=_nonnegative_int, default=0, metavar="N",
        help="seed for the fault injector's victim choice (default 0)",
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
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.cell_timeout is not None and args.jobs in (None, 1):
        # resolve_jobs: None/1 = serial, where a cell running in the
        # parent process cannot be preempted (parallel._execute_serial).
        print(
            "warning: --cell-timeout is not enforced on the serial "
            "path; pass --jobs 2 or more for per-cell deadlines",
            file=sys.stderr,
        )

    from repro.evalx.metrics import RunMetrics, write_manifest
    from repro.evalx.parallel import RetryPolicy

    if args.experiment == "all":
        ids = EXPERIMENT_IDS
    elif args.experiment == "extensions":
        ids = EXTENSION_IDS
    else:
        ids = (args.experiment,)

    checkpoint = None
    if args.checkpoint_dir:
        from repro.evalx.checkpoint import CheckpointStore

        checkpoint = CheckpointStore(
            args.checkpoint_dir, resume=args.resume
        )
    injection = (
        _armed_fault_plan(
            args.inject_faults, args.fault_seed, _cell_labels(ids, args)
        )
        if args.inject_faults
        else nullcontext()
    )

    retry = RetryPolicy(
        retries=args.retries,
        backoff_seconds=args.retry_backoff,
        timeout_seconds=args.cell_timeout,
    )
    metrics = RunMetrics(path=args.metrics)
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
                "retry_backoff": args.retry_backoff,
                "cell_timeout": args.cell_timeout,
                "checkpoint_dir": args.checkpoint_dir,
                "resume": args.resume,
                "inject_faults": args.inject_faults,
                "fault_seed": args.fault_seed,
            },
        )
        print(f"[manifest written to {manifest_path}]", file=sys.stderr)

    failed_cells = 0
    with injection, metrics:
        for experiment_id in ids:
            started = time.time()
            result = run_experiment(
                experiment_id,
                n_tasks=args.tasks,
                quick=args.quick,
                jobs=args.jobs,
                keep_going=args.keep_going,
                retry=retry,
                metrics=metrics,
                checkpoint=checkpoint,
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


def _cell_labels(ids, args) -> list[str]:
    """Cell labels of the selected cell-grid experiments.

    These are the ``--inject-faults`` victims to choose from (legacy
    monolithic drivers expose no cells and can't be targeted).
    """
    import importlib

    labels: list[str] = []
    for experiment_id in ids:
        module = importlib.import_module(
            f"repro.evalx.experiments.{experiment_id}"
        )
        if hasattr(module, "cells"):
            labels.extend(
                cell.label
                for cell in module.cells(
                    n_tasks=args.tasks, quick=args.quick
                )
            )
    return labels


def _armed_fault_plan(
    spec: str, seed: int, labels: list[str]
) -> AbstractContextManager[None]:
    """Compile the ``--inject-faults`` spec; return it armed as a context.

    Inside the block the plan is published through the
    :data:`repro.evalx.faults.ENV_VAR` environment variable, so pool
    workers inherit it; on exit the caller's environment comes back
    (see :func:`repro.evalx.faults.armed`).
    """
    from repro.evalx import faults

    plan = faults.FaultPlan.compile(spec, seed=seed, labels=labels)
    print(
        f"[fault injection armed: {len(plan.triggers)} trigger(s) "
        f"from spec {spec!r}, seed {seed}]",
        file=sys.stderr,
    )
    return faults.armed(plan)


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
