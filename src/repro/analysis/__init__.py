"""Repo-specific static analysis for what the test suite cannot see.

Most of the engine's guarantees are checked by running the code: the
determinism twin, the registry checks and the property tests of the
tier-1 suite (``docs/ANALYSIS.md`` maps each guarantee to its test).
Two are not visible in any output, so they stay source checks (see
:mod:`repro.analysis.rules`):

* ``CKP003`` — crash-safe publication: store files reach their
  destination only through :func:`repro.utils.fsio.publish`, the two
  store modules never write a file in place, and no module writes
  ``os.environ``. A torn write shows only after a crash.
* ``VEC001`` — the vectorization contract: no per-element Python loop
  over ndarray state in the kernel packages. Such a loop gives the
  same answers, only slower.

A finding is accepted only by a justified entry in the baseline file,
which goes stale (and fails the run) once its finding stops firing.
Run ``python -m repro.analysis`` for the CLI.
"""

from repro.analysis.core import (
    Finding,
    ModuleInfo,
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
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_analysis",
]
