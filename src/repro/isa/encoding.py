"""Bit-level encoding of task headers.

The paper's header stores, per exit, a 5-bit *exit specifier* (control-flow
type plus flags), a 32-bit target-address field (null when the compiler does
not know the target), and a 32-bit return-address field for call exits
(§2.1). This module packs headers into integers so that the CTTB-only
comparison of §5.4 ("the header makes up the majority of the [static task
annotation]") can account for real sizes, and so tests can verify lossless
round-trips.

Layout (LSB first):
    [2 bits]  exit count - 1
    [16 bits] create mask
    per exit:
        [5 bits]  exit specifier (3 bits type, 1 bit has-target,
                  1 bit has-return-address)
        [32 bits] target address, if has-target
        [32 bits] return address, if has-return-address
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.isa.controlflow import CF_TYPE_FROM_CODE
from repro.isa.task import TaskExit, TaskHeader
from repro.utils.bits import bit_mask

#: Width of the per-exit specifier field, as in the paper ("encoded in 5 bits").
EXIT_SPECIFIER_BITS = 5

_CREATE_MASK_BITS = 16
_COUNT_BITS = 2
_ADDRESS_BITS = 32
_SPECIFIER_MASK = bit_mask(EXIT_SPECIFIER_BITS)
_ADDRESS_MASK = bit_mask(_ADDRESS_BITS)


class _BitWriter:
    """Accumulates fields LSB-first into a single integer."""

    def __init__(self) -> None:
        self.value = 0
        self.width = 0

    def write(self, field: int, width: int) -> None:
        if not 0 <= field <= bit_mask(width):
            raise EncodingError(f"field {field} does not fit in {width} bits")
        self.value |= field << self.width
        self.width += width


def header_bits(n_exits, n_targets, n_return_addresses):
    """Encoded size in bits of a header with these field counts.

    Takes ints, or integer arrays of one header per element.
    """
    return (
        _COUNT_BITS + _CREATE_MASK_BITS
        + n_exits * EXIT_SPECIFIER_BITS
        + (n_targets + n_return_addresses) * _ADDRESS_BITS
    )


def header_size_bits(header: TaskHeader) -> int:
    """Return the encoded size of ``header`` in bits."""
    exits = header.exits
    return header_bits(
        len(exits),
        sum(task_exit.target is not None for task_exit in exits),
        sum(task_exit.return_address is not None for task_exit in exits),
    )


def encode_header(header: TaskHeader) -> tuple[int, int]:
    """Pack ``header`` into ``(value, width_in_bits)``."""
    writer = _BitWriter()
    writer.write(header.n_exits - 1, _COUNT_BITS)
    if header.create_mask > bit_mask(_CREATE_MASK_BITS):
        raise EncodingError(
            f"create mask {header.create_mask:#x} exceeds "
            f"{_CREATE_MASK_BITS} bits"
        )
    writer.write(header.create_mask, _CREATE_MASK_BITS)
    for task_exit in header.exits:
        specifier = task_exit.cf_type.code
        specifier |= (1 << 3) if task_exit.target is not None else 0
        specifier |= (1 << 4) if task_exit.return_address is not None else 0
        writer.write(specifier, EXIT_SPECIFIER_BITS)
        if task_exit.target is not None:
            writer.write(task_exit.target, _ADDRESS_BITS)
        if task_exit.return_address is not None:
            writer.write(task_exit.return_address, _ADDRESS_BITS)
    return writer.value, writer.width


def decode_header(value: int, width: int) -> TaskHeader:
    """Unpack a header previously produced by :func:`encode_header`."""
    n_exits = (value & bit_mask(_COUNT_BITS)) + 1
    create_mask = (value >> _COUNT_BITS) & bit_mask(_CREATE_MASK_BITS)
    cursor = _COUNT_BITS + _CREATE_MASK_BITS
    exits = []
    for _ in range(n_exits):
        specifier = (value >> cursor) & _SPECIFIER_MASK
        cursor += EXIT_SPECIFIER_BITS
        target = return_address = None
        if specifier & (1 << 3):
            target = (value >> cursor) & _ADDRESS_MASK
            cursor += _ADDRESS_BITS
        if specifier & (1 << 4):
            return_address = (value >> cursor) & _ADDRESS_MASK
            cursor += _ADDRESS_BITS
        if cursor > width:
            raise EncodingError("header bitstream exhausted")
        type_code = specifier & 0b111
        if type_code not in CF_TYPE_FROM_CODE:
            raise EncodingError(f"unknown control-flow type code {type_code}")
        exits.append(
            TaskExit(
                cf_type=CF_TYPE_FROM_CODE[type_code],
                target=target,
                return_address=return_address,
            )
        )
    return TaskHeader(exits=tuple(exits), create_mask=create_mask)
