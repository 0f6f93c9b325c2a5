"""The one packing of integers into fixed-width slots of a big integer.

Kronecker substitution (Schoenhage 1982): integers v_0, v_1, ... with
|v_i| < 2^(8k-1) stand for the one integer sum(v_i 2^(8ki)), one k-byte slot
each.  Sums and products of such integers add and convolve the slots, and
while every slot stays in that range it can be read back, in C for the slot
widths struct reads.  Polynomial products (qpoly), the conic's minors and its
envelope (plucker) share it; no other request path loads this module.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

# struct's format letter of each slot width it reads and writes in C
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def slot_width(bound: int) -> int:
    """The bytes per slot that hold every integer of absolute value at most
    bound beside a sign bit: 1, 2, 4 or 8, the widths read in C, or more for
    a wider bound."""
    k = bound.bit_length() // 8 + 1
    return next((width for width in _FORMATS if width >= k), k)


def _sign_bits(k: int, count: int) -> int:
    """The top bit of each of count k-byte slots."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * count, "little")


def pack_slots(values: Sequence[int], k: int) -> int:
    """sum(values[i] 2^(8ki)) for |values[i]| < 2^(8k-1).

    Written as two's-complement slots, a negative value reads 2^(8k) too high,
    which is its sign bit moved up one place: taking those bits off once
    leaves the sum.
    """
    if k in _FORMATS:
        raw = struct.pack(f"<{len(values)}{_FORMATS[k]}", *values)
    else:
        raw = b"".join([v.to_bytes(k, "little", signed=True) for v in values])
    x = int.from_bytes(raw, "little")
    return x - ((x & _sign_bits(k, len(values))) << 1)


def slot_bytes(xs: Iterable[int], k: int, count: int) -> list[bytes]:
    """For each x = sum(v_i 2^(8ki)) in xs, |v_i| < 2^(8k-1), its count k-byte
    slots as little-endian two's complement: adding 2^(8k-1) to every slot
    makes each nonnegative, so none borrows from the next, and flipping that
    bit back leaves v_i mod 2^(8k)."""
    sign = _sign_bits(k, count)
    return [((x + sign) ^ sign).to_bytes(count * k, "little") for x in xs]


def read_slots(raw: bytes, k: int) -> Sequence[int]:
    """The signed integers of raw's k-byte little-endian two's-complement slots."""
    if k in _FORMATS:
        return struct.unpack(f"<{len(raw) // k}{_FORMATS[k]}", raw)
    return [int.from_bytes(raw[i:i + k], "little", signed=True) for i in range(0, len(raw), k)]
