"""Round-trip and validation tests for the binary program image format."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import PartitionConfig, compile_program
from repro.errors import EncodingError, ReproError, TaskFormatError
from repro.isa.controlflow import ControlFlowType
from repro.isa.image import (
    decode_program,
    encode_program,
    load_program,
    save_program,
)
from repro.isa.program import MultiscalarProgram
from repro.isa.table import COLUMNS, NO_ADDRESS, TaskTable
from repro.isa.task import StaticTask, TaskExit, TaskHeader
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import BENCHMARK_NAMES, get_profile
from repro.synth.workloads import build_program

from tests.helpers import (
    assert_same_program,
    column_offset,
    target_byte_offset,
)

_BRANCH = ControlFlowType.BRANCH
_CALL = ControlFlowType.CALL
_RETURN = ControlFlowType.RETURN
_HEADER = TaskHeader((TaskExit(_RETURN),))


def _slot(table, cf_type):
    """(row, slot) of the table's first exit of type ``cf_type``."""
    used = np.arange(table.cf_codes.shape[1]) < table.n_exits[:, None]
    rows, slots = np.nonzero(used & (table.cf_codes == cf_type.code))
    return int(rows[0]), int(slots[0])


def _forge(program, field, value):
    """``program``'s image with one field replaced, checksum recomputed.

    ``field`` is ``"entry"``, ``"slots"`` or ``(column, row, slot)``.
    """
    blob = bytearray(encode_program(program))
    if field == "entry":
        struct.pack_into("<I", blob, 8, value)
    elif field == "slots":
        struct.pack_into("<H", blob, 6, value)
    else:
        struct.pack_into("<q", blob, column_offset(program, *field), value)
    blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
    return bytes(blob)


#: One forged field per rule the task objects check: the rule, the field
#: and its forged value in a given table, and an object construction
#: that breaks the same rule.
_RULES = [
    (
        "branch without target",
        lambda t: (("targets", *_slot(t, _BRANCH)), NO_ADDRESS),
        lambda: TaskExit(_BRANCH),
    ),
    (
        "return with target",
        lambda t: (("targets", *_slot(t, _RETURN)), 0x1000),
        lambda: TaskExit(_RETURN, target=0x1000),
    ),
    (
        "call without return address",
        lambda t: (("return_addrs", *_slot(t, _CALL)), NO_ADDRESS),
        lambda: TaskExit(_CALL, target=0x1000),
    ),
    (
        "branch with return address",
        lambda t: (("return_addrs", *_slot(t, _BRANCH)), 0x1000),
        lambda: TaskExit(_BRANCH, target=0x1000, return_address=0x1000),
    ),
    (
        "target beyond 32 bits",
        lambda t: (("targets", *_slot(t, _BRANCH)), 1 << 32),
        lambda: TaskExit(_BRANCH, target=1 << 32),
    ),
    (
        "return address beyond 32 bits",
        lambda t: (("return_addrs", *_slot(t, _CALL)), 1 << 32),
        lambda: TaskExit(_CALL, target=0x1000, return_address=1 << 32),
    ),
    (
        "no exits",
        lambda t: (("n_exits", 0, 0), 0),
        lambda: TaskHeader(()),
    ),
    (
        "five exits",
        lambda t: (("n_exits", 0, 0), 5),
        lambda: TaskHeader(_HEADER.exits * 5),
    ),
    (
        "negative create mask",
        lambda t: (("create_mask", 0, 0), -1),
        lambda: TaskHeader(_HEADER.exits, create_mask=-1),
    ),
    (
        "address beyond 32 bits",
        lambda t: (("addrs", len(t) - 1, 0), 1 << 32),
        lambda: StaticTask(1 << 32, _HEADER),
    ),
    (
        "no instructions",
        lambda t: (("instruction_count", 0, 0), 0),
        lambda: StaticTask(0x1000, _HEADER, instruction_count=0),
    ),
    (
        "negative internal branches",
        lambda t: (("internal_branches", 0, 0), -1),
        lambda: StaticTask(0x1000, _HEADER, internal_branch_count=-1),
    ),
    (
        "negative use mask",
        lambda t: (("use_mask", 0, 0), -1),
        lambda: StaticTask(0x1000, _HEADER, use_mask=-1),
    ),
    (
        "duplicate address",
        lambda t: (("addrs", 1, 0), int(t.addrs[0])),
        lambda: MultiscalarProgram(
            "p", [StaticTask(0x1000, _HEADER)] * 2, entry=0x1000
        ),
    ),
    (
        "entry not a task",
        lambda t: ("entry", int(t.addrs[0]) + 1),
        lambda: MultiscalarProgram(
            "p", [StaticTask(0x1000, _HEADER)], entry=0x1001
        ),
    ),
]


class TestImageRoundTrip:
    def test_round_trip_preserves_everything(
        self, compress_workload, tmp_path
    ):
        program = compress_workload.program
        path = tmp_path / "compress.msx"
        written = save_program(program, path)
        assert written == path.stat().st_size
        loaded = load_program(path, name="compress")

        assert loaded.entry == program.entry
        assert loaded.static_task_count == program.static_task_count
        for address in program.tfg.addresses():
            original = program.task(address)
            restored = loaded.task(address)
            assert restored.header == original.header
            assert restored.instruction_count == original.instruction_count
            assert (
                restored.internal_branch_count
                == original.internal_branch_count
            )
            assert restored.use_mask == original.use_mask
            assert restored.name == original.name

    def test_loaded_tfg_validates(self, compress_workload, tmp_path):
        path = tmp_path / "p.msx"
        save_program(compress_workload.program, path)
        load_program(path).tfg.validate()

    def test_image_size_tracks_header_bits(
        self, compress_workload, tmp_path
    ):
        program = compress_workload.program
        path = tmp_path / "p.msx"
        written = save_program(program, path)
        # Headers dominate; the image must be at least as large as the
        # packed header payload.
        assert written >= program.total_header_bits() // 8


class TestImageErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.msx"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(EncodingError):
            load_program(path)

    def test_truncated_file_rejected(self, compress_workload, tmp_path):
        path = tmp_path / "p.msx"
        save_program(compress_workload.program, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(EncodingError):
            load_program(path)

    def test_trailing_garbage_rejected(self, compress_workload, tmp_path):
        path = tmp_path / "p.msx"
        save_program(compress_workload.program, path)
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(EncodingError):
            load_program(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.msx"
        path.write_bytes(b"")
        with pytest.raises(EncodingError):
            load_program(path)


class TestImageChecksum:
    """Format v3 ends in a SHA-256 of every byte before it."""

    def test_trailer_is_sha256_of_the_body(self, compress_workload):
        blob = encode_program(compress_workload.program)
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()

    def test_flipped_target_byte_rejected(self, compress_workload):
        program = compress_workload.program
        blob = bytearray(encode_program(program))
        offset, task = target_byte_offset(program)
        blob[offset] ^= 0xFF
        with pytest.raises(EncodingError, match="checksum mismatch"):
            decode_program(bytes(blob), "compress")
        # With a recomputed trailer the same bytes decode, to a program
        # whose first target differs: the flip hit a target field.
        blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
        forged = decode_program(bytes(blob), "compress")
        assert (
            forged.task(task.address).header.exits[0].target
            != task.header.exits[0].target
        )

    def test_truncated_image_rejected(self, compress_workload):
        blob = encode_program(compress_workload.program)
        with pytest.raises(EncodingError):
            decode_program(blob[:-1], "compress")

    def test_decoded_program_takes_the_given_name(self, compress_workload):
        blob = encode_program(compress_workload.program)
        assert decode_program(blob, "renamed").name == "renamed"


class TestWarmEqualsCold:
    """A decoded image is the program a build gives, field for field."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_profile_round_trips(self, name):
        built = build_program(name).program
        assert_same_program(decode_program(encode_program(built), name), built)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=2**31))
    def test_compress_sized_programs_round_trip(self, seed):
        profile = dataclasses.replace(get_profile("compress"), seed=seed)
        built = compile_program(
            SyntheticProgramGenerator(profile).generate(),
            name=profile.name,
            config=PartitionConfig(
                max_blocks_per_task=profile.max_blocks_per_task
            ),
        ).program
        decoded = decode_program(encode_program(built), profile.name)
        assert_same_program(decoded, built)


class TestImageValidation:
    """An image whose checksum holds is still checked field by field."""

    @pytest.mark.parametrize(
        "forge, build", [rule[1:] for rule in _RULES],
        ids=[rule[0] for rule in _RULES],
    )
    def test_rejects_what_the_objects_reject(
        self, compress_workload, forge, build
    ):
        with pytest.raises(ReproError) as from_objects:
            build()
        program = compress_workload.program
        field, value = forge(program.table)
        with pytest.raises(from_objects.type):
            decode_program(_forge(program, field, value), "forged")

    @pytest.mark.parametrize(
        "column, value", [("cf_codes", 7), ("targets", 0x1000)]
    )
    def test_unknown_code_and_filled_spare_slot_rejected(
        self, compress_workload, column, value
    ):
        program = compress_workload.program
        single = int(np.flatnonzero(program.table.n_exits == 1)[0])
        slot = 0 if column == "cf_codes" else 3
        with pytest.raises(TaskFormatError):
            decode_program(
                _forge(program, (column, single, slot), value), "forged"
            )

    def test_other_slot_count_rejected(self, compress_workload):
        blob = _forge(compress_workload.program, "slots", 3)
        with pytest.raises(EncodingError, match="exit slots"):
            decode_program(blob, "forged")

    def test_version_2_image_rejected(self, compress_workload):
        blob = bytearray(encode_program(compress_workload.program))
        struct.pack_into("<H", blob, 4, 2)
        blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
        with pytest.raises(EncodingError, match="version 2"):
            decode_program(bytes(blob), "old")

    def test_name_count_checked(self, compress_workload):
        blob = bytearray(encode_program(compress_workload.program))
        blob[blob.rindex(b"\0", 0, len(blob) - 32)] = ord("_")
        blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
        with pytest.raises(EncodingError, match="task names"):
            decode_program(bytes(blob), "forged")

    def test_name_with_nul_cannot_be_encoded(self):
        program = MultiscalarProgram(
            "p", [StaticTask(0x1000, _HEADER, name="a\0b")], entry=0x1000
        )
        with pytest.raises(EncodingError):
            encode_program(program)


class TestObjectView:
    """A table's task objects are the tasks it was built from."""

    def test_objects_rebuild_the_same_table(self, compress_workload):
        table = compress_workload.program.table
        rebuilt = TaskTable.from_tasks(table.tasks())
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(rebuilt, column), getattr(table, column)
            )
        assert rebuilt.names == table.names

    def test_task_flow_graph_holds_equal_tasks(self, compress_workload):
        tasks = compress_workload.program.table.tasks()
        program = MultiscalarProgram(
            "copy", tasks, entry=compress_workload.program.entry
        )
        assert list(program.tfg) == tasks

    def test_rows_are_sorted_by_address(self):
        late, early = StaticTask(0x2000, _HEADER), StaticTask(0x1000, _HEADER)
        table = TaskTable.from_tasks([late, early])
        assert table.addrs.tolist() == [0x1000, 0x2000]
        assert table.tasks() == [early, late]

    def test_columns_are_read_only(self, compress_workload):
        decoded = decode_program(
            encode_program(compress_workload.program), "compress"
        )
        for program in (compress_workload.program, decoded):
            with pytest.raises(ValueError):
                program.table.targets[0, 0] = 0
