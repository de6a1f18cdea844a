"""Experiment harness: one driver per table and figure of the paper.

Every experiment is runnable two ways:

* programmatically — ``from repro.evalx import run_experiment``;
* from the command line — ``python -m repro.evalx figure7``.

Each driver returns an :class:`ExperimentResult` carrying both a rendered
text report (the same rows/series the paper presents) and the raw numbers,
which the claims of :mod:`repro.evalx.claims` are evaluated on.
"""

from repro.evalx.checkpoint import (
    CheckpointCorrupt,
    CheckpointKeyError,
    CheckpointStore,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import CellFailure, RetryPolicy, is_failure
from repro.evalx.registry import (
    EXPERIMENT_IDS,
    ExperimentResult,
    run_experiment,
)

__all__ = [
    "EXPERIMENT_IDS",
    "ExperimentResult",
    "run_experiment",
    "RunMetrics",
    "RetryPolicy",
    "CellFailure",
    "is_failure",
    "CheckpointStore",
    "CheckpointCorrupt",
    "CheckpointKeyError",
]
