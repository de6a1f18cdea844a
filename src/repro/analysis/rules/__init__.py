"""Rules for the repro static-analysis pass.

Importing this package registers every rule with the framework's
registry (see :func:`repro.analysis.core.register_rule`):

* :mod:`repro.analysis.rules.checkpointing` — ``CKP003``
* :mod:`repro.analysis.rules.vectorization` — ``VEC001``

Each rule is a flat AST walk over one module. A rule stays only while
it flags an edit that the tier-1 suite cannot see; ``docs/ANALYSIS.md``
lists the retired rules and the tests that hold their guarantees now.
"""

from repro.analysis.rules import (  # noqa: F401  (register on import)
    checkpointing,
    vectorization,
)
