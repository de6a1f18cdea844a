"""Tests for register masks and the dependence-aware timing mode."""

import pytest

from repro.errors import TaskFormatError
from repro.isa.controlflow import ControlFlowType
from repro.isa.task import StaticTask, TaskExit, TaskHeader
from repro.predictors.task_predictor import PerfectTaskPredictor
from repro.sim.timing import TimingConfig, simulate_timing


class TestMaskPlumbing:
    def test_tasks_carry_masks(self, gcc_workload):
        program = gcc_workload.program
        for task in program.tfg:
            assert 0 <= task.header.create_mask <= 0xFFFF
            assert 0 <= task.use_mask <= 0xFFFF
            # Every generated-function task aggregates its blocks' masks;
            # only the synthetic driver (main) carries none.
            if not task.name.startswith("main:"):
                assert task.header.create_mask != 0
                assert task.use_mask != 0

    def test_masks_vary_across_tasks(self, gcc_workload):
        masks = {
            task.header.create_mask
            for task in gcc_workload.program.tfg
        }
        assert len(masks) > 10

    def test_negative_use_mask_rejected(self):
        header = TaskHeader(
            exits=(TaskExit(cf_type=ControlFlowType.RETURN),)
        )
        with pytest.raises(TaskFormatError):
            StaticTask(address=0x100, header=header, use_mask=-1)

    def test_masks_deterministic(self):
        from repro.synth.generator import SyntheticProgramGenerator
        from repro.synth.profiles import get_profile
        from repro.compiler import PartitionConfig, compile_program

        def build():
            profile = get_profile("compress")
            cfg = SyntheticProgramGenerator(profile).generate()
            return compile_program(
                cfg, name="c",
                config=PartitionConfig(
                    max_blocks_per_task=profile.max_blocks_per_task
                ),
            )

        a, b = build(), build()
        masks_a = {
            t.address: (t.header.create_mask, t.use_mask)
            for t in a.program.tfg
        }
        masks_b = {
            t.address: (t.header.create_mask, t.use_mask)
            for t in b.program.tfg
        }
        assert masks_a == masks_b


class TestDependenceAwareTiming:
    def test_dependence_awareness_never_slower(self, compress_workload):
        """Skipping forwarding stalls for independent task pairs can only
        remove serialization."""
        def run(aware):
            return simulate_timing(
                compress_workload,
                PerfectTaskPredictor(compress_workload.trace),
                config=TimingConfig(dependence_aware=aware),
            )

        uniform = run(False)
        aware = run(True)
        assert aware.cycles <= uniform.cycles
        assert aware.ipc >= uniform.ipc

    def test_dependence_awareness_changes_something(self, gcc_workload):
        """With 2-register masks over 16 registers, many neighbouring task
        pairs are independent: the aware model must actually diverge."""
        def run(aware):
            return simulate_timing(
                gcc_workload,
                PerfectTaskPredictor(gcc_workload.trace.head(5000)),
                config=TimingConfig(dependence_aware=aware),
                limit=5000,
            )

        assert run(True).cycles < run(False).cycles

    def test_full_serial_fraction_still_dominates(self, compress_workload):
        """Even dependence-aware, forward_fraction=1.0 with dependent pairs
        must cost cycles vs 0.0."""
        def run(fraction):
            return simulate_timing(
                compress_workload,
                PerfectTaskPredictor(compress_workload.trace.head(4000)),
                config=TimingConfig(
                    dependence_aware=True, forward_fraction=fraction
                ),
                limit=4000,
            )

        assert run(1.0).cycles >= run(0.0).cycles
