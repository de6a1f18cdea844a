"""Repo-specific static analysis guarding the parallel engine's invariants.

The reproduction's headline guarantee — serial and ``--jobs N`` runs are
bit-identical — rests on properties nothing in Python enforces at
runtime: simulation kernels must be deterministic, cell functions shipped
to worker processes must not mutate shared module state, and every
experiment driver must speak the cells/combine protocol (including
tolerating :class:`~repro.evalx.parallel.CellFailure` gaps). This package
machine-checks those invariants over the source tree.

Six rule families (see :mod:`repro.analysis.rules`):

* ``DET*`` — determinism lint: unseeded ``random`` / legacy
  ``np.random`` global-state calls, wall-clock reads, and
  set-iteration-order dependence inside simulation code.
* ``PUR*`` — worker-purity race detector: module-level mutable globals
  written by functions reachable from registered cell callables, and
  unpicklable cell callables.
* ``PROT*`` — driver-protocol conformance: every experiment module is
  registered, defines ``cells``/``combine``, and its ``combine``
  handles :class:`~repro.evalx.parallel.CellFailure`.
* ``NPW*`` — numpy bit-width lint: shifts and accumulations that can
  exceed the operand dtype width.
* ``CKP*`` — checkpoint hygiene: cell kwargs the checkpoint
  fingerprint rejects, store files renamed into place anywhere but
  :mod:`repro.utils.fsio`, and any ``os.environ`` write.
* ``VEC*`` — vectorization contract: per-element Python loops over
  ndarray state in batched modules, and narrowing bit-packed stores.

Findings can be suppressed per line (``# repro: noqa[RULE]``) or
recorded as intentional exceptions in a baseline file with a
justification each. Run ``python -m repro.analysis`` for the CLI.
"""

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    run_analysis,
)
from repro.analysis.baseline import Baseline, BaselineEntry

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_analysis",
]
