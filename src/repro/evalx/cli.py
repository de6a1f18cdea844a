"""Engine options shared by ``python -m repro.evalx`` and ``repro-tune``.

Both command lines drive the one experiment engine
(:func:`repro.evalx.registry.run_experiment`), so its options are
declared here once:

* :func:`add_engine_options` adds ``--jobs``, ``--keep-going``,
  ``--retries``, ``--metrics``, ``--checkpoint-dir`` and ``--resume``
  to a parser, in an "execution engine" group;
* :func:`engine_from_args` checks them and builds the engine keywords
  ``jobs``, ``keep_going``, ``retry`` (a
  :class:`~repro.evalx.parallel.RetryPolicy`), ``metrics`` (a
  :class:`~repro.evalx.metrics.RunMetrics`, which the caller closes)
  and ``checkpoint`` (a
  :class:`~repro.evalx.checkpoint.CheckpointStore`, or None).

The argparse types below reject a bad value before any cell is built.
"""

from __future__ import annotations

import argparse
from typing import Any

from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import RetryPolicy

#: Upper bound for ``--jobs``: anything beyond this is a typo, not a
#: machine.
MAX_JOBS = 1024


def jobs_arg(text: str) -> int:
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


def positive_float(text: str) -> float:
    """Argparse type for durations (``--cell-timeout``): a number > 0."""
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


def positive_int(text: str) -> int:
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


def nonnegative_int(text: str) -> int:
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


def add_engine_options(
    parser: argparse.ArgumentParser,
) -> argparse._ArgumentGroup:
    """Declare the engine options on ``parser``; returns their group."""
    engine = parser.add_argument_group("execution engine")
    engine.add_argument(
        "--jobs", type=jobs_arg, default=None, metavar="N",
        help=(
            "fan independent (benchmark x config) cells over N worker "
            "processes; 0 = one per CPU; default serial. Results are "
            "identical regardless of N"
        ),
    )
    engine.add_argument(
        "--keep-going", action="store_true",
        help=(
            "don't abort on a failed cell: record it as a gap and "
            "finish the rest (the tuner drops the gap's candidate)"
        ),
    )
    engine.add_argument(
        "--retries", type=nonnegative_int, default=0, metavar="N",
        help="extra attempts granted to each failing cell (default 0)",
    )
    engine.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="append per-cell and per-experiment JSONL metrics to FILE",
    )
    engine.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help=(
            "persist every completed cell to DIR atomically (crash-safe "
            "run store); combine with --resume to skip cells whose "
            "verified record already exists"
        ),
    )
    engine.add_argument(
        "--resume", action="store_true",
        help=(
            "serve verified records from --checkpoint-dir instead of "
            "re-running their cells; a killed run restarted this way "
            "completes with byte-identical output"
        ),
    )
    return engine


def engine_from_args(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    timeout_seconds: float | None = None,
) -> dict[str, Any]:
    """The engine keywords for parsed ``args``.

    Exits through ``parser.error`` when ``--resume`` lacks
    ``--checkpoint-dir``. ``timeout_seconds`` is the per-cell deadline
    of the returned :class:`~repro.evalx.parallel.RetryPolicy`.
    """
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    checkpoint = (
        CheckpointStore(args.checkpoint_dir, resume=args.resume)
        if args.checkpoint_dir
        else None
    )
    return {
        "jobs": args.jobs,
        "keep_going": args.keep_going,
        "retry": RetryPolicy(
            retries=args.retries, timeout_seconds=timeout_seconds
        ),
        "metrics": RunMetrics(path=args.metrics),
        "checkpoint": checkpoint,
    }
