"""Property-based fuzzing of the partition -> compile -> execute pipeline.

Hypothesis generates random miniature benchmark profiles (random seeds,
construct mixes, sizes, partition caps); for each we run the entire stack
and check the invariants that every legal Multiscalar executable and trace
must satisfy, regardless of the program's shape.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import PartitionConfig, compile_program
from repro.compiler.partitioner import TaskPartitioner
from repro.isa.controlflow import MAX_EXITS_PER_TASK
from repro.synth.executor import TraceExecutor
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import BenchmarkProfile, PaperStats
from repro.synth.trace import CF_TYPE_CODES

_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tiny_profiles(draw):
    return BenchmarkProfile(
        name="fuzz",
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        paper=PaperStats("fuzz", 0, 0, 0),
        n_hot_functions=draw(st.integers(min_value=1, max_value=6)),
        n_cold_functions=draw(st.integers(min_value=0, max_value=3)),
        call_levels=draw(st.integers(min_value=1, max_value=4)),
        constructs_per_function=(1, draw(st.integers(2, 8))),
        max_blocks_per_task=draw(st.sampled_from([1, 2, 4, 8, 16])),
        w_if=draw(st.floats(0.0, 4.0)),
        w_ifelse=draw(st.floats(0.0, 3.0)),
        w_loop=draw(st.floats(0.0, 3.0)),
        w_call=draw(st.floats(0.0, 4.0)),
        w_switch=draw(st.floats(0.0, 1.0)),
        w_icall=draw(st.floats(0.0, 1.0)),
        w_straight=1.0,
        recursion_depth=draw(st.sampled_from([0, 0, 5])),
    )


def _compile(profile):
    program_cfg = SyntheticProgramGenerator(profile).generate()
    return compile_program(
        program_cfg,
        name="fuzz",
        config=PartitionConfig(
            max_blocks_per_task=profile.max_blocks_per_task
        ),
    )


def _full_regrow_partition(partitioner):
    """Reference partition: regrow every region after each promotion.

    The partitioner's original fixpoint loop, kept as the oracle for its
    worklist: fix the first violating region in leader order, then
    rebuild the whole function's regions from the new leader set.
    """
    leaders = partitioner._initial_leaders()
    while True:
        regions = partitioner._grow_regions(leaders)
        oversized = next(
            (
                regions[leader]
                for leader in sorted(regions)
                if partitioner._violates(regions[leader])
            ),
            None,
        )
        if oversized is None:
            return partitioner._layout_order(regions)
        leaders.add(partitioner._pick_split_block(oversized))


class TestPartitionerWorklist:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tiny_profiles(), st.integers(min_value=2, max_value=4))
    def test_matches_full_regrow(self, profile, max_exits):
        config = PartitionConfig(
            max_blocks_per_task=profile.max_blocks_per_task,
            max_exits_per_task=max_exits,
        )
        program_cfg = SyntheticProgramGenerator(profile).generate()
        for cfg in program_cfg.functions():
            partitioner = TaskPartitioner(cfg, config)
            assert partitioner.partition() == _full_regrow_partition(
                partitioner
            )


class TestCompiledInvariants:
    @_SLOW
    @given(tiny_profiles())
    def test_every_task_has_legal_header(self, profile):
        compiled = _compile(profile)
        compiled.program.tfg.validate()
        for task in compiled.program.tfg:
            assert 1 <= task.n_exits <= MAX_EXITS_PER_TASK
            assert task.instruction_count >= 1
            assert task.address % 4 == 0

    @_SLOW
    @given(tiny_profiles())
    def test_blocks_map_into_tasks(self, profile):
        compiled = _compile(profile)
        for label, cblock in compiled.blocks.items():
            task = compiled.program.task(cblock.task_address)
            if cblock.terminator_exit_index is not None:
                assert cblock.terminator_exit_index < task.n_exits
            for index in cblock.successor_exit_index:
                if index is not None:
                    assert index < task.n_exits

    @_SLOW
    @given(tiny_profiles())
    def test_block_cap_respected(self, profile):
        compiled = _compile(profile)
        blocks_per_task: dict[int, int] = {}
        for cblock in compiled.blocks.values():
            blocks_per_task[cblock.task_address] = (
                blocks_per_task.get(cblock.task_address, 0) + 1
            )
        assert max(blocks_per_task.values()) <= profile.max_blocks_per_task


class TestTraceInvariants:
    @_SLOW
    @given(tiny_profiles())
    def test_executed_trace_is_consistent(self, profile):
        compiled = _compile(profile)
        trace = TraceExecutor(compiled, seed=profile.seed).run(400)
        program = compiled.program
        for i in range(len(trace)):
            addr = int(trace.task_addr[i])
            exit_index = int(trace.exit_index[i])
            task = program.task(addr)
            assert exit_index < task.n_exits
            # The recorded type matches the header's exit type.
            header_exit = task.exit(exit_index)
            assert CF_TYPE_CODES[header_exit.cf_type] == int(
                trace.cf_type[i]
            )
            if i + 1 < len(trace):
                assert int(trace.next_addr[i]) == int(
                    trace.task_addr[i + 1]
                )

    @_SLOW
    @given(tiny_profiles())
    def test_execution_deterministic(self, profile):
        compiled = _compile(profile)
        a = TraceExecutor(compiled, seed=7).run(200)
        b = TraceExecutor(compiled, seed=7).run(200)
        assert a.task_addr.tolist() == b.task_addr.tolist()
        assert a.exit_index.tolist() == b.exit_index.tolist()


class TestImageRoundTripProperty:
    @_SLOW
    @given(tiny_profiles())
    def test_any_generated_program_round_trips(self, profile):
        import tempfile
        from pathlib import Path

        from repro.isa.image import load_program, save_program

        compiled = _compile(profile)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.msx"
            save_program(compiled.program, path)
            loaded = load_program(path)
        assert loaded.entry == compiled.program.entry
        assert (
            loaded.static_task_count == compiled.program.static_task_count
        )
        for address in compiled.program.tfg.addresses():
            assert (
                loaded.task(address).header
                == compiled.program.task(address).header
            )
