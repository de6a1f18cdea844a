"""Tests for the task flow graph and program containers."""

import pytest

from repro.errors import TaskFormatError
from repro.evalx.experiments.common import BENCHMARKS
from repro.isa.controlflow import ControlFlowType
from repro.isa.display import format_program_summary
from repro.isa.encoding import header_size_bits
from repro.isa.program import MultiscalarProgram
from repro.isa.task import StaticTask, TaskExit, TaskHeader
from repro.isa.tfg import TaskFlowGraph
from repro.synth.workloads import load_workload


def make_task(address, targets=(), with_return=False):
    exits = [
        TaskExit(cf_type=ControlFlowType.BRANCH, target=t) for t in targets
    ]
    if with_return or not exits:
        exits.append(TaskExit(cf_type=ControlFlowType.RETURN))
    return StaticTask(address=address, header=TaskHeader(exits=tuple(exits)))


class TestTaskFlowGraph:
    def test_membership_and_lookup(self):
        tfg = TaskFlowGraph([make_task(0x100)])
        assert 0x100 in tfg
        assert tfg.task(0x100).address == 0x100
        assert 0x200 not in tfg

    def test_duplicate_address_rejected(self):
        tfg = TaskFlowGraph([make_task(0x100)])
        with pytest.raises(TaskFormatError):
            tfg.add_task(make_task(0x100))

    def test_static_arcs_from_header(self):
        tfg = TaskFlowGraph(
            [make_task(0x100, targets=(0x200,)), make_task(0x200)]
        )
        assert tfg.static_successors(0x100) == {0x200}

    def test_dynamic_arcs_union(self):
        tfg = TaskFlowGraph(
            [make_task(0x100, targets=(0x200,)), make_task(0x200)]
        )
        tfg.record_dynamic_arc(0x100, 0x300)
        assert tfg.successors(0x100) == {0x200, 0x300}
        assert tfg.static_successors(0x100) == {0x200}

    def test_dynamic_arc_from_unknown_source_rejected(self):
        tfg = TaskFlowGraph([make_task(0x100)])
        with pytest.raises(TaskFormatError):
            tfg.record_dynamic_arc(0x999, 0x100)

    def test_validate_catches_dangling_static_arc(self):
        tfg = TaskFlowGraph([make_task(0x100, targets=(0xDEAD,))])
        with pytest.raises(TaskFormatError):
            tfg.validate()

    def test_addresses_sorted(self):
        tfg = TaskFlowGraph([make_task(0x300), make_task(0x100)])
        assert tfg.addresses() == [0x100, 0x300]

    def test_unknown_lookup_raises(self):
        with pytest.raises(TaskFormatError):
            TaskFlowGraph().task(0x1)

    def test_len_and_iter(self):
        tfg = TaskFlowGraph([make_task(0x100), make_task(0x200)])
        assert len(tfg) == 2
        assert {t.address for t in tfg} == {0x100, 0x200}


class TestMultiscalarProgram:
    def test_entry_must_be_task(self):
        with pytest.raises(TaskFormatError):
            MultiscalarProgram("p", [make_task(0x100)], entry=0x999)

    def test_static_task_count(self):
        program = MultiscalarProgram(
            "p", [make_task(0x100), make_task(0x200)], entry=0x100
        )
        assert program.static_task_count == 2

    def test_exit_arity_histogram(self):
        program = MultiscalarProgram(
            "p",
            [
                make_task(0x100, targets=(0x200, 0x300), with_return=True),
                make_task(0x200),
                make_task(0x300),
            ],
            entry=0x100,
        )
        assert program.exit_arity_histogram() == {1: 2, 3: 1}

    def test_total_header_bits_positive(self):
        program = MultiscalarProgram("p", [make_task(0x100)], entry=0x100)
        assert program.total_header_bits() > 0

    def test_contains(self):
        program = MultiscalarProgram("p", [make_task(0x100)], entry=0x100)
        assert 0x100 in program
        assert 0x500 not in program

    def test_unknown_task_address_rejected(self):
        program = MultiscalarProgram("p", [make_task(0x100)], entry=0x100)
        with pytest.raises(TaskFormatError, match="no task at address 0x500"):
            program.task(0x500)


class TestAnswersFromTheTable:
    """A task lookup or the header sum builds no task flow graph."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_lookup_and_header_bits_equal_the_object_walk(self, name):
        shared = load_workload(name, n_tasks=4_000).program
        program = MultiscalarProgram(shared.name, shared.table, shared.entry)
        summary = format_program_summary(program)
        assert "tfg" not in program.__dict__
        tasks = program.table.tasks()
        bits = sum(header_size_bits(task.header) for task in tasks)
        assert program.total_header_bits() == bits
        assert f"total header bits: {bits} " in summary
        assert [program.task(task.address) for task in tasks] == tasks
        assert "tfg" not in program.__dict__
