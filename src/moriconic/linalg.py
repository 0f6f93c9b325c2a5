"""Exact rational scalars, dense matrices, and binary-form utilities.

Nothing in this package touches floating point, because every classification
downstream is a discrete verdict that must be exact.  RatMatrix is the one
store of rationals: its entries, row by row, as Python ints over one positive
common denominator, in lowest terms (lowest_terms is the one place that
normalizes), so equal matrices have equal storage.  Linear and binary forms
are its one-row subclass RatVector; a Kronecker module, a conic's coordinates,
an envelope basis and the determinant Gram matrix are matrices.  Arithmetic,
rank and the wire strings work on those ints; the Fractions of .entries,
.coeffs, .coords and .basis are built only when read.  Elimination is
fraction-free on the integer rows (den * a matrix has the same rank, span and
reduced form).
Binary forms are homogeneous polynomials in (s, t), stored by coefficient of
s^(d-i) t^i.  Irrational roots are never constructed; existence is certified
through the discriminant or gcd degrees.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul
from typing import Iterable, Iterator, Sequence

# ASCII digits only: \d would also match other scripts' digits, and $ a final newline
_RAT = r"-?[0-9]+(?:/[1-9][0-9]*)?"
_RAT_RE = re.compile(_RAT)
# integer or p/q strings joined by ",", with exactly one comma per join when no
# string holds one
_RAT_LIST_RE = re.compile(f"{_RAT}(?:,{_RAT})*")


def num_den(x) -> tuple[int, int]:
    """(p, q) with x = p / q and q > 0, for an int, Fraction, or 'p/q' decimal string.

    Floats are rejected: they would silently break exactness.
    """
    if isinstance(x, str):
        if not _RAT_RE.fullmatch(x):
            raise ValueError(f"malformed rational string: {x!r}")
        num, _, den = x.partition("/")
        return int(num), int(den) if den else 1
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x.as_integer_ratio()
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' decimal string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    p, q = num_den(x)
    return Fraction(p, q) if q != 1 else Fraction(p)


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


def common_denominator(vectors: Sequence[RatMatrix]) -> tuple[list[int], int]:
    """(the entries of the vectors, one after another, over d, d), d the lcm of their denominators."""
    d = math.lcm(*(v.den for v in vectors))
    return [x * (d // v.den) for v in vectors for x in v.nums], d


def rationals(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Exact rationals (ints, Fractions, 'p/q' strings) as lowest-terms (nums, den)."""
    values = tuple(values)
    text = ",".join(values) if all(type(x) is str for x in values) else ""
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

    One gcd and one string per distinct numerator, then nums map through that
    table; a zero needs no special case, since gcd(0, den) = den.
    """
    nums = tuple(nums)
    table = {}
    for x in set(nums):
        g = math.gcd(x, den)
        table[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
    return list(map(table.__getitem__, nums))


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
    """A one-row RatMatrix with vector arithmetic: coeffs builds the
    Fractions; arithmetic and to_json work on the ints."""

    __slots__ = ()

    def __init__(self, size: int, coeffs: Iterable):
        self.nums, self.den = rationals(coeffs)
        self.rows, self.cols = 1, len(self.nums)
        if self.cols != size:
            raise ValueError(f"expected {size} coefficients, got {self.cols}")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __add__(self, other):
        if type(other) is not type(self) or len(other.nums) != len(self.nums):
            raise ValueError(f"cannot add {other!r} to {self!r}")
        p, q = self.den, other.den
        return self.from_ints([a * q + b * p for a, b in zip(self.nums, other.nums)], p * q)

    def __sub__(self, other):
        return self + -1 * other

    def scale(self, c):
        p, q = num_den(c)
        return self.from_ints([p * x for x in self.nums], self.den * q)

    __rmul__ = scale

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

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return self.scale(other)
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return BinaryForm.from_ints(out, self.den * other.den)

    def __call__(self, s, t) -> Fraction:
        s, t = as_rat(s), as_rat(t)
        total = sum(c * s ** (self.degree - i) * t**i for i, c in enumerate(self.nums) if c)
        return Fraction(total) / self.den

    def normalized(self) -> "BinaryForm":
        """Scaled to integer coprime coefficients with positive leading entry.

        Leading entry means the first nonzero coefficient (highest s power).
        """
        if self.is_zero:
            return self
        g = math.gcd(*self.nums)
        if next(v for v in self.nums if v) < 0:
            g = -g
        return BinaryForm.from_ints([v // g for v in self.nums])


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


def cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    """The cross product u x v of two integer triples."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def span_basis(triples: Iterable[Sequence[int]]) -> list[Sequence[int]]:
    """The first nonzero triple, the first off its line and the first off their
    plane: the pivot columns of the matrix whose columns are the triples.

    Reading stops at the third; the number returned is the rank.
    """
    basis: list[Sequence[int]] = []
    for v in triples:
        if len(basis) == 2:
            if normal[0] * v[0] + normal[1] * v[1] + normal[2] * v[2]:
                basis.append(v)
                break
        elif basis:
            normal = cross(basis[0], v)
            if any(normal):
                basis.append(v)
        elif any(v):
            basis.append(v)
    return basis


def quadratic_gcd(triples: Iterable[Sequence[int]]) -> "BinaryForm | AllZero":
    """Gcd of binary quadratics given as integer coefficient triples.

    The triples span at most three dimensions, and the span decides the gcd.
    Dimension 3 leaves no common factor.  In dimension 2 the cross product
    (X, Y, Z) of two basis triples is proportional to (s0^2, s0 t0, t0^2) for
    every common root (s0 : t0), so the basis shares a root exactly when the
    resultant Y^2 - XZ vanishes, and then the root is (X : Y), or (0 : 1) when
    X = 0.  In dimension 1 every triple is a multiple of the first nonzero one.
    The result is normalized to coprime integers with a positive leading
    entry, and ALL_ZERO when every triple is zero.
    """
    basis = span_basis(triples)
    if not basis:
        return ALL_ZERO
    if len(basis) == 1:
        return BinaryForm.from_ints(basis[0]).normalized()
    x, y, z = cross(*basis[:2])
    if len(basis) == 3 or y * y != x * z:
        return BinaryForm.from_ints((1,))
    s0, t0 = (x, y) if x else (y, z)
    return BinaryForm.from_ints((t0, -s0)).normalized()


# ---------------------------------------------------------------------------
# Root structure of forms of degree <= 2
# ---------------------------------------------------------------------------


class RootKind(Enum):
    NO_ROOT = "no_root"
    SIMPLE_ROOT = "simple_root"
    TWO_DISTINCT_ROOTS = "two_distinct_roots"
    DOUBLE_ROOT = "double_root"


@dataclass(frozen=True)
class RootStructure:
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


def _proj_point(s: int, t: int) -> tuple[Fraction, Fraction]:
    # canonical representative: (s/t, 1) if t != 0, else (1, 0)
    if t:
        return (Fraction(s, t), Fraction(1))
    return (Fraction(1), Fraction(0))


def quadratic_root_structure(f: BinaryForm) -> RootStructure:
    """Classify the roots of a nonzero binary form of degree 0, 1, or 2.

    With f = (c0, c1, c2) / den over integers, the denominator cancels from
    every root, and the discriminant is D / den^2 for the integer
    D = c1^2 - 4 c0 c2, a rational square exactly when D is a square.
    """
    if f.is_zero:
        raise ValueError("root structure of the zero form is undefined")
    if f.degree > 2:
        raise ValueError("only forms of degree <= 2 are classified")
    if f.degree == 0:
        return RootStructure(RootKind.NO_ROOT, (), True, None)
    if f.degree == 1:
        c0, c1 = f.nums
        return RootStructure(RootKind.SIMPLE_ROOT, (_proj_point(-c1, c0),), True, None)
    c0, c1, c2 = f.nums
    d = c1 * c1 - 4 * c0 * c2
    disc = Fraction(d, f.den * f.den)
    if d == 0:
        # when c0 = 0 then c1 = 0 too, and the double root is (1 : 0)
        return RootStructure(RootKind.DOUBLE_ROOT, (_proj_point(-c1, 2 * c0),), True, disc)
    if c0 == 0:
        # t divides the form
        roots = (_proj_point(1, 0), _proj_point(-c2, c1))
        return RootStructure(RootKind.TWO_DISTINCT_ROOTS, roots, True, disc)
    if d > 0 and (w := math.isqrt(d)) ** 2 == d:
        roots = (_proj_point(-c1 + w, 2 * c0), _proj_point(-c1 - w, 2 * c0))
        return RootStructure(RootKind.TWO_DISTINCT_ROOTS, roots, True, disc)
    return RootStructure(RootKind.TWO_DISTINCT_ROOTS, (), False, disc)
