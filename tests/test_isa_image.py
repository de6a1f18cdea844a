"""Round-trip tests for the binary program image format."""

import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import PartitionConfig, compile_program
from repro.errors import EncodingError
from repro.isa.image import (
    decode_program,
    encode_program,
    load_program,
    save_program,
)
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import BENCHMARK_NAMES, get_profile
from repro.synth.workloads import build_program

from tests.helpers import assert_same_program, target_byte_offset


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
    """Format v2 ends in a SHA-256 of every byte before it."""

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
