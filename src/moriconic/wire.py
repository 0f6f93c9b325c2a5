"""The wire forms of exact rationals: reading them and writing them.

A rational on the wire is a string "p" or "p/q" in ASCII digits.  rationals
reads a list of them (or of ints and Fractions) into lowest-terms integer
numerators over one positive denominator, the one store of every record, and
rat_strings writes such numerators back as str(Fraction) would.  These and
the JSON text helpers are all that the chamber and poincare requests need, so
this module imports neither fractions nor the linear algebra.  Every request
path loads it, so it also holds the one packing of integers into fixed-width
slots of a big integer (Kronecker substitution), which polynomial products,
the conic's minors and its envelope share.  The few
Fraction values the records hold are built with fraction_type(), which
imports fractions on its first call, so a request that builds none never
loads it or the decimal it imports.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from itertools import repeat
from operator import floordiv, mul
from typing import Iterable, Sequence

# ASCII digits only: \d would also match other scripts' digits, and $ a final newline
_RAT = r"-?[0-9]+(?:/[1-9][0-9]*)?"
_RAT_RE = re.compile(_RAT)
# integer or p/q strings joined by ",", with exactly one comma per join when no
# string holds one
_RAT_LIST_RE = re.compile(f"{_RAT}(?:,{_RAT})*")


def num_den(x) -> tuple[int, int]:
    """(p, q) with x = p / q and q > 0, for an int, Fraction, or 'p/q' decimal string.

    Floats are rejected: they would silently break exactness.  A Fraction
    exists only once fractions is loaded, so the check reads it from
    sys.modules and never imports it.
    """
    if isinstance(x, str):
        if not _RAT_RE.fullmatch(x):
            raise ValueError(f"malformed rational string: {x!r}")
        num, _, den = x.partition("/")
        return int(num), int(den) if den else 1
    fractions = sys.modules.get("fractions")
    if (isinstance(x, int) or fractions and isinstance(x, fractions.Fraction)) and not isinstance(x, bool):
        return x.as_integer_ratio()
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def fraction_type() -> type:
    """fractions.Fraction, imported on the first call; later calls read it from
    sys.modules, which costs a tenth of an import statement."""
    fractions = sys.modules.get("fractions")
    if fractions is None:
        import fractions
    return fractions.Fraction


def lowest_terms(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) scaled so that den > 0 and gcd(den, *nums) == 1.

    Every rational matrix is stored in this form, so it is unique: the zero
    matrix has denominator 1.
    """
    nums = tuple(nums)
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple(map(floordiv, nums, repeat(g))), den // g


def rationals(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Exact rationals (ints, Fractions, 'p/q' strings) as lowest-terms (nums, den)."""
    values = tuple(values)
    try:
        text = ",".join(values)
    except TypeError:  # not all strings: ints and Fractions are read one by one
        text = ""
    if _RAT_LIST_RE.fullmatch(text) and text.count(",") == len(values) - 1:
        if "/" not in text:
            return tuple(map(int, values)), 1
        # split each string at "/", read each distinct denominator once
        heads, _, tails = zip(*map(str.partition, values, repeat("/")))
        dens = {q: int(q) for q in set(tails) if q}
        den = math.lcm(*dens.values())
        scales = {q: den // d for q, d in dens.items()}
        scales[""] = den
        return lowest_terms(map(mul, map(int, heads), map(scales.__getitem__, tails)), den)
    # the first malformed string is reported by num_den
    pairs = [num_den(x) for x in values]
    den = math.lcm(*(q for _, q in pairs))
    return lowest_terms([p * (den // q) for p, q in pairs], den)


def rat_strings(nums: Iterable[int], den: int) -> list[str]:
    """The wire strings of nums[i] / den, each as str(Fraction) writes it.

    One string per distinct numerator, then nums map through that table.
    Over den 1 the string is str(x); otherwise one gcd per distinct numerator
    and one "/q" suffix per distinct gcd other than den.  A zero needs no
    special case, since gcd(0, den) = den.
    """
    nums = tuple(nums)
    if den == 1:
        table = {x: str(x) for x in set(nums)}
        return list(map(table.__getitem__, nums))
    table = {}
    suffixes = {}
    for x in set(nums):
        g = math.gcd(x, den)
        if g == den:
            table[x] = str(x // g)
            continue
        if g not in suffixes:
            suffixes[g] = f"/{den // g}"
        table[x] = f"{x // g}{suffixes[g]}"
    return list(map(table.__getitem__, nums))


# The schema_version of every successful CLI document.
SCHEMA_VERSION = 1


class JsonText(str):
    """One JSON value already written as compact text with sorted keys: a
    document writer puts it in as it is."""

    __slots__ = ()


def json_strings(strings: Sequence[str]) -> str:
    """The JSON array of strings that need no escaping, such as wire rationals."""
    return '["' + '","'.join(strings) + '"]' if strings else "[]"


def json_array(value, what: str) -> list:
    """value itself if it is a JSON array; a string would be read character by character."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


# Kronecker substitution: integers v_0, v_1, ... with |v_i| < 2^(8k-1) stand
# for the one integer sum(v_i 2^(8ki)), one k-byte slot each.  Sums and
# products of such integers add and convolve the slots, and while every slot
# stays in that range it can be read back.


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
