"""Inter-task control-flow types (Table 1 of the paper).

A task must end in a control-transfer instruction. The paper classifies the
instruction terminating each task exit into five types, which differ in
whether the compiler can place the target address in the task header and in
how many dynamic targets the exit may have:

=================  =========================  ==============  ===========
Type               Scalar analogue            Target in hdr?  # targets
=================  =========================  ==============  ===========
BRANCH             (un)conditional branch     yes             1
CALL               PC-relative call           yes             1
RETURN             return                     no              unlimited
INDIRECT_BRANCH    indirect branch            no              unlimited
INDIRECT_CALL      indirect call              no              unlimited
=================  =========================  ==============  ===========
"""

from __future__ import annotations

import enum

#: The Multiscalar implementation in the paper limits headers to four exits.
MAX_EXITS_PER_TASK = 4


class ControlFlowType(enum.Enum):
    """The five inter-task control-flow types of Table 1.

    Each member's ``code`` is its stable number in trace arrays, header
    tables and the header encoding. It is a plain attribute, so reading
    it hashes nothing.
    """

    BRANCH = ("branch", 0)
    CALL = ("call", 1)
    RETURN = ("return", 2)
    INDIRECT_BRANCH = ("indirect_branch", 3)
    INDIRECT_CALL = ("indirect_call", 4)

    _value_: str
    code: int

    def __new__(cls, value: str, code: int) -> "ControlFlowType":
        member = object.__new__(cls)
        member._value_ = value
        member.code = code
        return member

    def __str__(self) -> str:
        return self.value


#: Code of each control-flow type, as stored in trace arrays.
CF_TYPE_CODES: dict[ControlFlowType, int] = {
    cf: cf.code for cf in ControlFlowType
}
#: Control-flow type of each code.
CF_TYPE_FROM_CODE: dict[int, ControlFlowType] = {
    cf.code: cf for cf in ControlFlowType
}


# The predicates below test membership in tuples, which compares
# identities; reading an enum member off its class, or hashing it, costs
# several times more, and headers are checked once per exit.
_TARGET_IN_HEADER = (ControlFlowType.BRANCH, ControlFlowType.CALL)
_CALL_TYPES = (ControlFlowType.CALL, ControlFlowType.INDIRECT_CALL)
_INDIRECT_TYPES = (
    ControlFlowType.INDIRECT_BRANCH,
    ControlFlowType.INDIRECT_CALL,
)


def target_known_at_compile_time(cf_type: ControlFlowType) -> bool:
    """True if the compiler can write this exit's target into the header.

    BRANCH and CALL targets are PC-relative and known statically; returns and
    indirect transfers are not (paper §2.1, §5.3).
    """
    return cf_type in _TARGET_IN_HEADER


def is_call_type(cf_type: ControlFlowType) -> bool:
    """True for exits that push a return address (CALL, INDIRECT_CALL)."""
    return cf_type in _CALL_TYPES


def is_indirect_type(cf_type: ControlFlowType) -> bool:
    """True for exits whose target must be predicted by a target buffer."""
    return cf_type in _INDIRECT_TYPES
