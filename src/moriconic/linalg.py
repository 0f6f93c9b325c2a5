"""Exact rational scalars, dense matrices, and binary-form utilities.

Scalars are fractions.Fraction at every public boundary; nothing in this
package touches floating point, because every classification downstream is a
discrete verdict that must be exact.  Elimination runs on integers: rows are
scaled to clear denominators (which changes no rank, span or reduced form) and
reduced fraction-free, so Fractions appear only in the results.  Binary
forms are homogeneous polynomials in (s, t), stored by coefficient of
s^(d-i) t^i.  Irrational roots are never constructed; existence is certified
through the discriminant or gcd degrees.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' decimal string to an exact rational.

    Floats are rejected: they would silently break exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RAT_RE.match(x):
            raise ValueError(f"malformed rational string: {x!r}")
        num, _, den = x.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def format_rat(x: Fraction) -> str:
    """Canonical wire form: 'p' or 'p/q' with q > 1."""
    return str(x)


def json_array(value, what: str) -> list:
    """value itself if it is a JSON array; a string would be read character by character."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


def clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """(D * values, D) for D the least common denominator of the rationals."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _over(ints: Sequence[int], den: int) -> Sequence:
    """ints / den.  When den is 1 the ints themselves: as_rat turns them into
    Fractions faster than Fraction(x, 1) would."""
    return ints if den == 1 else [Fraction(x, den) for x in ints]


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
    """Dense matrix over Q; all elimination is exact."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(as_rat(x) for x in row) for row in entries]
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged rows")
        self.entries: tuple[tuple[Fraction, ...], ...] = tuple(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.entries]})"

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.entries))) if self.rows else RatMatrix([])

    def rank(self) -> int:
        # scaling a row by a nonzero constant leaves the rank unchanged
        return len(bareiss([clear_denominators(row)[0] for row in self.entries])[1])


# ---------------------------------------------------------------------------
# Binary forms in (s, t)
# ---------------------------------------------------------------------------


class BinaryForm:
    """Homogeneous form in (s, t); coeffs[i] multiplies s^(degree-i) t^i.

    The zero form keeps its nominal degree.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = tuple(as_rat(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"expected {degree + 1} coefficients, got {len(cs)}")
        self.degree = degree
        self.coeffs = cs

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.degree, self.coeffs))

    def __repr__(self) -> str:
        return f"BinaryForm({self.degree}, {[str(c) for c in self.coeffs]})"

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        ints, den = clear_denominators(self.coeffs + other.coeffs)
        size = self.degree + 1
        return BinaryForm(self.degree, _over([a + b for a, b in zip(ints, ints[size:])], den))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + (-other)

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            d = self.degree + other.degree
            xs, dx = clear_denominators(self.coeffs)
            ys, dy = clear_denominators(other.coeffs)
            out = [0] * (d + 1)
            for i, a in enumerate(xs):
                if a:
                    for j, b in enumerate(ys):
                        out[i + j] += a * b
            return BinaryForm(d, _over(out, dx * dy))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "BinaryForm":
        c = as_rat(c)
        return BinaryForm(self.degree, [c * x for x in self.coeffs])

    def __call__(self, s, t) -> Fraction:
        s, t = as_rat(s), as_rat(t)
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * s ** (self.degree - i) * t**i
        return total

    def normalized(self) -> "BinaryForm":
        """Scaled to integer coprime coefficients with positive leading entry.

        Leading entry means the first nonzero coefficient (highest s power).
        """
        if self.is_zero:
            return self
        ints = clear_denominators(self.coeffs)[0]
        g = math.gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        return BinaryForm(self.degree, [v // g for v in ints])

    def to_json(self) -> list[str]:
        return [format_rat(c) for c in self.coeffs]


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
    """Gcd of binary quadratics given as integer coefficient triples.

    The triples span at most three dimensions, and the span decides the gcd.
    Dimension 3 leaves no common factor.  In dimension 2 the cross product
    (X, Y, Z) of two basis triples is proportional to (s0^2, s0 t0, t0^2) for
    every common root (s0 : t0), so the basis shares a root exactly when the
    resultant Y^2 - XZ vanishes, and then the root is (X : Y), or (0 : 1) when
    X = 0.  In dimension 1 every triple is a multiple of the first nonzero one.
    Reading stops at the third independent triple.  The result is normalized
    to coprime integers with a positive leading entry, and ALL_ZERO when
    every triple is zero.
    """
    first = normal = None
    for v in triples:
        if normal is not None:
            if normal[0] * v[0] + normal[1] * v[1] + normal[2] * v[2]:
                return BinaryForm(0, (1,))
        elif first is not None:
            a, b, c = first
            d, e, f = v
            cross = (b * f - c * e, c * d - a * f, a * e - b * d)
            if any(cross):
                normal = cross
        elif any(v):
            first = v
    if first is None:
        return ALL_ZERO
    if normal is None:
        return BinaryForm(2, first).normalized()
    x, y, z = normal
    if y * y != x * z:
        return BinaryForm(0, (1,))
    s0, t0 = (x, y) if x else (y, z)
    return BinaryForm(1, (t0, -s0)).normalized()


def quadratics_over(triples: Iterable[Sequence[int]], den: int) -> list[BinaryForm]:
    """Binary quadratics with the integer coefficient triples divided by den."""
    return [BinaryForm(2, _over(t, den)) for t in triples]


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


def _is_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _sqrt(x: Fraction) -> Fraction:
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def _proj_point(s: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    # canonical representative: (r, 1) if t != 0, else (1, 0)
    if t != 0:
        return (s / t, Fraction(1))
    return (Fraction(1), Fraction(0))


def quadratic_root_structure(f: BinaryForm) -> RootStructure:
    """Classify the roots of a nonzero binary form of degree 0, 1, or 2."""
    if f.is_zero:
        raise ValueError("root structure of the zero form is undefined")
    if f.degree > 2:
        raise ValueError("only forms of degree <= 2 are classified")
    if f.degree == 0:
        return RootStructure(RootKind.NO_ROOT, (), True, None)
    if f.degree == 1:
        c0, c1 = f.coeffs
        root = _proj_point(-c1, c0) if c0 != 0 else (Fraction(1), Fraction(0))
        return RootStructure(RootKind.SIMPLE_ROOT, (root,), True, None)
    c0, c1, c2 = f.coeffs
    disc = c1 * c1 - 4 * c0 * c2
    if c0 == 0:
        # t divides the form
        if c1 == 0:
            return RootStructure(
                RootKind.DOUBLE_ROOT, ((Fraction(1), Fraction(0)),), True, disc
            )
        roots = ((Fraction(1), Fraction(0)), _proj_point(-c2, c1))
        return RootStructure(RootKind.TWO_DISTINCT_ROOTS, roots, True, disc)
    if disc == 0:
        return RootStructure(
            RootKind.DOUBLE_ROOT, (_proj_point(-c1, 2 * c0),), True, disc
        )
    if _is_square(disc):
        w = _sqrt(disc)
        roots = (_proj_point(-c1 + w, 2 * c0), _proj_point(-c1 - w, 2 * c0))
        return RootStructure(RootKind.TWO_DISTINCT_ROOTS, roots, True, disc)
    return RootStructure(RootKind.TWO_DISTINCT_ROOTS, (), False, disc)
