"""Tests for the Multiscalar ISA task model (repro.isa.task, controlflow)."""

import pytest

from repro.errors import TaskFormatError
from repro.isa.controlflow import (
    ControlFlowType,
    MAX_EXITS_PER_TASK,
    is_call_type,
    is_indirect_type,
    target_known_at_compile_time,
)
from repro.isa.task import StaticTask, TaskExit, TaskHeader


def branch_exit(target=0x1000):
    return TaskExit(cf_type=ControlFlowType.BRANCH, target=target)


def call_exit(target=0x2000, ret=0x1010):
    return TaskExit(
        cf_type=ControlFlowType.CALL, target=target, return_address=ret
    )


class TestControlFlowTypeTable:
    """The classification in Table 1 of the paper."""

    def test_target_known_for_branch_and_call_only(self):
        known = {
            cf for cf in ControlFlowType if target_known_at_compile_time(cf)
        }
        assert known == {ControlFlowType.BRANCH, ControlFlowType.CALL}

    def test_call_types(self):
        calls = {cf for cf in ControlFlowType if is_call_type(cf)}
        assert calls == {
            ControlFlowType.CALL, ControlFlowType.INDIRECT_CALL,
        }

    def test_indirect_types(self):
        indirect = {cf for cf in ControlFlowType if is_indirect_type(cf)}
        assert indirect == {
            ControlFlowType.INDIRECT_BRANCH, ControlFlowType.INDIRECT_CALL,
        }

    def test_exactly_five_types(self):
        assert len(list(ControlFlowType)) == 5

    def test_max_exits_is_four(self):
        assert MAX_EXITS_PER_TASK == 4


class TestTaskExit:
    def test_branch_requires_target(self):
        with pytest.raises(TaskFormatError):
            TaskExit(cf_type=ControlFlowType.BRANCH)

    def test_return_rejects_target(self):
        with pytest.raises(TaskFormatError):
            TaskExit(cf_type=ControlFlowType.RETURN, target=0x1000)

    def test_call_requires_return_address(self):
        with pytest.raises(TaskFormatError):
            TaskExit(cf_type=ControlFlowType.CALL, target=0x2000)

    def test_indirect_call_requires_return_address(self):
        with pytest.raises(TaskFormatError):
            TaskExit(cf_type=ControlFlowType.INDIRECT_CALL)

    def test_branch_rejects_return_address(self):
        with pytest.raises(TaskFormatError):
            TaskExit(
                cf_type=ControlFlowType.BRANCH,
                target=0x1000,
                return_address=0x1004,
            )

    def test_indirect_branch_carries_nothing(self):
        task_exit = TaskExit(cf_type=ControlFlowType.INDIRECT_BRANCH)
        assert task_exit.target is None
        assert task_exit.return_address is None

    def test_address_width_enforced(self):
        with pytest.raises(TaskFormatError):
            TaskExit(cf_type=ControlFlowType.BRANCH, target=1 << 32)


class TestTaskHeader:
    def test_exit_count_limits(self):
        with pytest.raises(TaskFormatError):
            TaskHeader(exits=())
        with pytest.raises(TaskFormatError):
            TaskHeader(exits=tuple(branch_exit(0x100 * i) for i in range(5)))

    def test_four_exits_allowed(self):
        header = TaskHeader(
            exits=tuple(branch_exit(0x100 * (i + 1)) for i in range(4))
        )
        assert header.n_exits == 4

    def test_exit_types_in_order(self):
        header = TaskHeader(exits=(branch_exit(), call_exit()))
        assert header.exit_types() == (
            ControlFlowType.BRANCH, ControlFlowType.CALL,
        )

    def test_negative_create_mask_rejected(self):
        with pytest.raises(TaskFormatError):
            TaskHeader(exits=(branch_exit(),), create_mask=-1)


class TestStaticTask:
    def make(self, **kwargs):
        defaults = dict(
            address=0x1000,
            header=TaskHeader(exits=(branch_exit(), call_exit())),
        )
        defaults.update(kwargs)
        return StaticTask(**defaults)

    def test_exit_lookup(self):
        task = self.make()
        assert task.exit(0).cf_type is ControlFlowType.BRANCH
        assert task.exit(1).cf_type is ControlFlowType.CALL

    def test_exit_out_of_range(self):
        with pytest.raises(TaskFormatError):
            self.make().exit(2)

    def test_static_targets_only_compile_time_known(self):
        task = StaticTask(
            address=0x1000,
            header=TaskHeader(
                exits=(
                    branch_exit(0x2000),
                    TaskExit(cf_type=ControlFlowType.RETURN),
                )
            ),
        )
        assert task.static_targets() == (0x2000,)

    def test_equal_tasks_stay_equal_once_targets_are_listed(self):
        """The task flow graph lists every task's static targets as it
        adds the task; that must not make it differ from its twin."""
        task, twin = self.make(), self.make()
        assert task == twin
        task.static_targets()
        assert task == twin

    def test_instruction_count_positive(self):
        with pytest.raises(TaskFormatError):
            self.make(instruction_count=0)

    def test_address_width_enforced(self):
        with pytest.raises(TaskFormatError):
            self.make(address=1 << 33)

    def test_n_exits(self):
        assert self.make().n_exits == 2
