"""Rule families for the repro static-analysis pass.

Importing this package registers every rule with the framework's
registry (see :func:`repro.analysis.core.register_rule`):

* :mod:`repro.analysis.rules.determinism` — ``DET001..DET004``
* :mod:`repro.analysis.rules.purity` — ``PUR001..PUR002``
* :mod:`repro.analysis.rules.protocol` — ``PROT001..PROT003``
* :mod:`repro.analysis.rules.bitwidth` — ``NPW001..NPW003``
* :mod:`repro.analysis.rules.checkpointing` — ``CKP001``, ``CKP003``
* :mod:`repro.analysis.rules.vectorization` — ``VEC001..VEC002``

Every rule is a flat AST walk over one module, or over the project's
call graph for the whole-program rules.
"""

from repro.analysis.rules import (  # noqa: F401  (register on import)
    bitwidth,
    checkpointing,
    determinism,
    protocol,
    purity,
    vectorization,
)
