"""Rule families for the repro static-analysis pass.

Importing this package registers every rule with the framework's
registry (see :func:`repro.analysis.core.register_rule`):

* :mod:`repro.analysis.rules.determinism` — ``DET001..DET004``
* :mod:`repro.analysis.rules.purity` — ``PUR001..PUR002``
* :mod:`repro.analysis.rules.protocol` — ``PROT001..PROT003``
* :mod:`repro.analysis.rules.bitwidth` — ``NPW001..NPW003``
* :mod:`repro.analysis.rules.checkpointing` — ``CKP001..CKP002``
* :mod:`repro.analysis.rules.vectorization` — ``VEC001..VEC002``
* :mod:`repro.analysis.rules.atomicity` — ``FS001``, ``FS002``, ``FS004``
* :mod:`repro.analysis.rules.envorder` — ``ENV001..ENV002``

The FS/ENV families are flow-sensitive: they run the CFG +
dataflow engine (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) instead of a flat AST walk.
"""

from repro.analysis.rules import (  # noqa: F401  (register on import)
    atomicity,
    bitwidth,
    checkpointing,
    determinism,
    envorder,
    protocol,
    purity,
    vectorization,
)
