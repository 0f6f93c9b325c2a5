"""Exact arithmetic for univariate integer polynomials in the motivic variable q.

A polynomial is a tuple of arbitrary-precision integer coefficients, index i
holding the coefficient of q^i, with trailing zeros stripped.  The zero
polynomial is the empty tuple; its degree is None, never an integer.
Coefficients are Python ints, so overflow is impossible by construction.

Sums and differences take one pass over the coefficients; a product is one
big-integer multiplication by Kronecker substitution (Schoenhage 1982;
Harvey 2009, J. Symbolic Comput. 44), so CPython's Karatsuba does the work.

There is no general division: the motivic formulas divide only by factors
1 - q^b, exactly, on coefficient lists of their own (motivic._ratio).
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from operator import add, sub
from typing import Iterable

from .packing import pack_slots, read_slots, slot_bytes, slot_width
from .wire import INTEGER_RE, json_array, json_strings, rat_strings


class QPoly:
    """Univariate polynomial over the integers, always in canonical form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        # the common case, plain ints only, is settled by one pass in C
        if not {int}.issuperset(map(type, cs)):
            for c in cs:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"integer coefficient expected, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def from_ints(cls, cs: list[int]) -> "QPoly":
        """The polynomial of cs, a list of plain ints: no type check and no
        copy; the list's trailing zeros are stripped in place."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        """A constant hashes as the int it equals, the zero polynomial as 0."""
        cs = self.coeffs
        if len(cs) < 2:
            return hash(cs[0] if cs else 0)
        return hash(("QPoly", cs))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QPoly | None":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return QPoly((other,))
        return None

    def __add__(self, other) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPoly(starmap(add, zip_longest(self.coeffs, o.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPoly(starmap(sub, zip_longest(self.coeffs, o.coeffs, fillvalue=0)))

    def __mul__(self, other) -> "QPoly":
        """Product by Kronecker substitution: one big-integer multiplication.

        Each operand becomes one integer with one k-byte slot per coefficient
        (packing.pack_slots), so the product's coefficients sit in its k-byte
        slots.  No product coefficient exceeds max|a| max|b| min(len a, len b)
        in absolute value, and k holds that bound beside a sign bit.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return QPoly()
        k = slot_width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
        packed = pack_slots(a, k)
        # a square packs once, and CPython squares faster than it multiplies
        prod = packed * (packed if b is a else pack_slots(b, k))
        return QPoly(read_slots(slot_bytes([prod], k, len(a) + len(b) - 1)[0], k))

    __rmul__ = __mul__

    # -- substitution ------------------------------------------------------

    def subst_q_power(self, k: int) -> "QPoly":
        """The polynomial evaluated at q^k, for k >= 1."""
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        if k == 1 or self.is_zero:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return QPoly.from_ints(out)

    # -- serialization -----------------------------------------------------

    def json_text(self) -> str:
        """The JSON array of decimal coefficient strings, lowest degree first,
        one string per distinct coefficient."""
        return json_strings(rat_strings(self.coeffs, 1))

    @classmethod
    def from_json(cls, data: list[str]) -> "QPoly":
        """Inverse of json_text: a JSON array of decimal integer strings."""
        cs = json_array(data, "a polynomial")
        if not all(isinstance(c, str) and INTEGER_RE.fullmatch(c) for c in cs):
            raise ValueError("coefficients must be decimal integer strings")
        return cls([int(c) for c in cs])

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

