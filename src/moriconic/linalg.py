"""Exact dense matrices and binary-form utilities over Q.

Nothing in this package touches floating point, because every classification
downstream is a discrete verdict that must be exact.  RatMatrix is the one
store of rationals: its entries, row by row, as Python ints over one positive
common denominator, in lowest terms (wire.lowest_terms is the one place that
normalizes), so equal matrices have equal storage.  Linear and binary forms
are its one-row subclass RatVector; a Kronecker module, a conic's coordinates,
an envelope basis and the determinant Gram matrix are matrices.  Rank and the
wire strings work on those ints.  The Fractions of .entries, .coeffs,
.coords and .basis, and of a root structure, are built only when read or
found, through wire.fraction_type: fractions is not imported when this
module loads.
Elimination is fraction-free on the integer rows (den * a matrix has the same
rank, span and reduced form).
Binary forms are homogeneous polynomials in (s, t), stored by coefficient of
s^(d-i) t^i.  Irrational roots are never constructed; existence is certified
through the discriminant or gcd degrees.  The integer routines behind the
gcd and the roots (gcd_coefficients, span_basis, cross, root_points) live in
strata, with the stability decision that is their main caller, so that a
stability request need not load this module; here quadratic_gcd,
BinaryForm.normalized and quadratic_root_structure wrap them in forms and
Enums.  Reading and writing the wire strings is the wire module's.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .strata import gcd_coefficients, normalized, root_points
from .wire import fraction_type, lowest_terms, rat_strings, rationals


def common_denominator(vectors: Sequence[RatMatrix]) -> tuple[list[int], int]:
    """(the entries of the vectors, one after another, over d, d), d the lcm of their denominators."""
    d = math.lcm(*(v.den for v in vectors))
    return [x * (d // v.den) for v in vectors for x in v.nums], d


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Returns the nonzero rows of the reduced echelon form scaled by a common
    integer d, the pivot columns, and d: row i over d is row i of the reduced
    row echelon form.  Each update (p * x - f * y) / prev divides exactly by
    Sylvester's identity, so entries stay minors of the input.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
        if r == len(m):
            break
    return m[:r], tuple(pivots), prev


def pivot_columns(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The pivot columns of an integer matrix, the ones bareiss finds: each
    column independent of the columns before it, read only until there are as
    many as rows.

    A column is reduced by the kept ones, fraction-free, each of which is zero
    at the leading entries of those kept before it; it is independent exactly
    when something is left.  With no exact division the entries double in
    length with each kept column, which suits the four rows of a module.
    """
    kept: list[tuple[int, list[int]]] = []
    pivots: list[int] = []
    for c, column in enumerate(zip(*rows)):
        for lead, v in kept:
            f = column[lead]
            if f:
                p = v[lead]
                column = [p * x - f * y for x, y in zip(column, v)]
        lead = next((i for i, x in enumerate(column) if x), None)
        if lead is not None:
            kept.append((lead, column))
            pivots.append(c)
            if len(pivots) == len(rows):
                break
    return tuple(pivots)


class RatMatrix:
    """Matrix over Q, rows x cols: its entries, row by row, as Python ints nums
    over one positive denominator den, in lowest terms, so equal matrices are
    stored alike.  entries builds the Fractions when read; rank and the wire
    strings work on the ints."""

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(row) for row in entries]
        self.rows, self.cols = len(rows), len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged rows")
        self.nums, self.den = rationals([x for row in rows for x in row])

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int = 1, cols: int | None = None):
        """The matrix nums / den, cols wide (one row when cols is None), its shape unchecked."""
        m = object.__new__(cls)
        m.nums, m.den = lowest_terms(nums, den)
        m.cols = len(m.nums) if cols is None else cols
        m.rows = len(m.nums) // m.cols if m.cols else 0
        return m

    def _split(self, flat: Iterable) -> Iterator[tuple]:
        """flat, row by row, lazily: self.rows tuples of self.cols entries."""
        if not self.cols:
            return repeat((), self.rows)
        return zip(*[iter(flat)] * self.cols)

    def int_rows(self) -> list[tuple[int, ...]]:
        """The rows of den * self, integers."""
        return list(self._split(self.nums))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        Fraction = fraction_type()
        return tuple(self._split(Fraction(x, self.den) for x in self.nums))

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols, self.nums, self.den) == (
            other.rows, other.cols, other.nums, other.den)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nums, self.den))

    def __repr__(self) -> str:
        return f"RatMatrix({self.json_rows()})"

    def transpose(self) -> "RatMatrix":
        flat = [x for col in zip(*self.int_rows()) for x in col]
        return RatMatrix.from_ints(flat, self.den, self.rows)

    def rank(self) -> int:
        return len(bareiss(self.int_rows())[1])

    def json_rows(self) -> list[list[str]]:
        """The wire strings of the entries, row by row."""
        return list(map(list, self._split(rat_strings(self.nums, self.den))))


class RatVector(RatMatrix):
    """A one-row RatMatrix: coeffs builds the Fractions; to_json writes the ints."""

    __slots__ = ()

    def __init__(self, size: int, coeffs: Iterable):
        self.nums, self.den = rationals(coeffs)
        self.rows, self.cols = 1, len(self.nums)
        if self.cols != size:
            raise ValueError(f"expected {size} coefficients, got {self.cols}")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        Fraction = fraction_type()
        return tuple(Fraction(x, self.den) for x in self.nums)

    def to_json(self) -> list[str]:
        return rat_strings(self.nums, self.den)


# ---------------------------------------------------------------------------
# Binary forms in (s, t)
# ---------------------------------------------------------------------------


class BinaryForm(RatVector):
    """Homogeneous form in (s, t); coefficient i multiplies s^(degree-i) t^i.

    The zero form keeps its nominal degree.
    """

    __slots__ = ()

    def __init__(self, degree: int, coeffs: Iterable):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        super().__init__(degree + 1, coeffs)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __repr__(self) -> str:
        return f"BinaryForm({self.degree}, {self.to_json()})"

    def normalized(self) -> "BinaryForm":
        """Scaled to integer coprime coefficients with positive leading entry.

        Leading entry means the first nonzero coefficient (highest s power).
        """
        if self.is_zero:
            return self
        return BinaryForm.from_ints(normalized(self.nums))


class AllZero:
    """Distinguished marker: the gcd of a family of identically-zero forms."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AllZero"


ALL_ZERO = AllZero()


def quadratic_gcd(triples: Iterable[Sequence[int]]) -> "BinaryForm | AllZero":
    """gcd_coefficients as a BinaryForm, and ALL_ZERO when every triple is zero."""
    nums = gcd_coefficients(triples)
    return ALL_ZERO if nums is None else BinaryForm.from_ints(nums)


# ---------------------------------------------------------------------------
# Root structure of forms of degree <= 2
# ---------------------------------------------------------------------------


class RootKind(Enum):
    NO_ROOT = "no_root"
    SIMPLE_ROOT = "simple_root"
    TWO_DISTINCT_ROOTS = "two_distinct_roots"
    DOUBLE_ROOT = "double_root"


class RootStructure(NamedTuple):
    """Roots of a binary form of degree <= 2 on the projective line.

    Rational roots are listed as canonical (s, t) pairs; when the two roots of
    a quadratic are irrational (conjugate over some quadratic extension, real
    or complex), ``roots`` is empty, ``rational`` is False, and the
    discriminant is the existence certificate.
    """

    kind: RootKind
    roots: tuple[tuple[Fraction, Fraction], ...]
    rational: bool
    discriminant: Fraction | None


def quadratic_root_structure(f: BinaryForm) -> RootStructure:
    """Classify the roots of a nonzero binary form of degree 0, 1, or 2.

    With f = (c0, c1, c2) / den over integers, the denominator cancels from
    every root, so root_points finds them from the integers; the discriminant
    is D / den^2 for its integer D.  A root (s, t) is listed as (s/t, 1), or
    (1, 0) when t = 0.
    """
    if f.is_zero:
        raise ValueError("root structure of the zero form is undefined")
    if f.degree > 2:
        raise ValueError("only forms of degree <= 2 are classified")
    if f.degree == 0:
        return RootStructure(RootKind.NO_ROOT, (), True, None)
    kind, points, d = root_points(f.nums)
    Fraction = fraction_type()
    roots = tuple((Fraction(s, t), Fraction(1)) if t else (Fraction(1), Fraction(0)) for s, t in points)
    disc = None if d is None else Fraction(d, f.den * f.den)
    return RootStructure(RootKind(kind), roots, bool(roots), disc)
