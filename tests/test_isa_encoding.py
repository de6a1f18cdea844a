"""Size tests for the task-header layout of §2.1."""

from repro.isa.controlflow import ControlFlowType
from repro.isa.encoding import EXIT_SPECIFIER_BITS, header_size_bits
from repro.isa.task import TaskExit, TaskHeader


class TestHeaderEncoding:
    def test_specifier_is_five_bits(self):
        # The paper: "This information is encoded in 5 bits."
        assert EXIT_SPECIFIER_BITS == 5

    def test_branch_exit_size(self):
        header = TaskHeader(
            exits=(TaskExit(cf_type=ControlFlowType.BRANCH, target=0x44),)
        )
        # 2 (count) + 16 (mask) + 5 (specifier) + 32 (target)
        assert header_size_bits(header) == 55

    def test_return_exit_is_smallest(self):
        header = TaskHeader(
            exits=(TaskExit(cf_type=ControlFlowType.RETURN),)
        )
        assert header_size_bits(header) == 23

    def test_call_exit_carries_two_addresses(self):
        header = TaskHeader(
            exits=(
                TaskExit(
                    cf_type=ControlFlowType.CALL,
                    target=0x100,
                    return_address=0x104,
                ),
            )
        )
        assert header_size_bits(header) == 2 + 16 + 5 + 64
