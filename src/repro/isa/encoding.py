"""Encoded size of task headers.

The paper's header stores, per exit, a 5-bit *exit specifier* (control-flow
type plus flags), a 32-bit target-address field (null when the compiler does
not know the target), and a 32-bit return-address field for call exits
(§2.1). This module gives a header's size in that layout, so that the
CTTB-only comparison of §5.4 ("the header makes up the majority of the
[static task annotation]") can account for real sizes.

Layout:
    [2 bits]  exit count - 1
    [16 bits] create mask
    per exit:
        [5 bits]  exit specifier (3 bits type, 1 bit has-target,
                  1 bit has-return-address)
        [32 bits] target address, if has-target
        [32 bits] return address, if has-return-address
"""

from __future__ import annotations

from repro.isa.task import TaskHeader

#: Width of the per-exit specifier field, as in the paper ("encoded in 5 bits").
EXIT_SPECIFIER_BITS = 5

_CREATE_MASK_BITS = 16
_COUNT_BITS = 2
_ADDRESS_BITS = 32


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
