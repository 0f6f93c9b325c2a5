"""GIT classification of 2x2 matrices of linear forms (Kronecker modules),
and the exact matrices and binary forms its records are built from.

A module is a point of P(V* (x) gl_2) with dim V = n + 1, acted on by
SL_2 x SL_2 through row and column operations with constant coefficients.
The classifier decides stability, locates semistable points in the orbit-type
stratification Y0 / Z0 / Y1 / Z1 / stable locus, and computes the determinant
quadric together with its rank.

RatMatrix is the one store of rationals: its entries, row by row, as Python
ints over one positive denominator, in lowest terms (wire.lowest_terms), so
equal matrices have equal storage.  Linear and binary forms are its one-row
subclass RatVector; a module (four rows), a conic's coordinates, an envelope
basis and the determinant Gram matrix are matrices.  Fractions are built only
when .entries, .coeffs, .coords, .basis or a root structure is read, through
wire.fraction_type, so loading this module does not import fractions.
pivot_columns, one fraction-free scan with exact division on the integer
rows, is the one elimination: rank counts its pivots, and cokernel_kind reads
its coordinates from them.  Binary forms in (s, t) are stored by coefficient
of s^(d-i) t^i; irrational roots are never constructed, and the discriminant
or the gcd degree certifies them.

The decision, strata.decide, and the integer gcd and roots behind it live in
strata with no Enum and no record, so the CLI's stability and stratify
requests load strata alone, and no CLI request loads this module.  Here
classify_stability and stratify map decide's strings to Stratum, Verdict,
StabilizerKind and WitnessKind, and quadratic_gcd and quadratic_root_structure
wrap the gcd and the roots in forms and Enums.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NotSemistable
from .strata import (CLASSES, checked, decide, destabilizing_witness, gcd_coefficients, integer_minors,
                     normalized, read_module, root_points, vector_strings)
from .wire import fraction_type, lowest_terms, rat_strings, rationals


def common_denominator(vectors: Sequence[RatMatrix]) -> tuple[list[int], int]:
    """(the entries of the vectors, one after another, over d, d), d the lcm of their denominators."""
    d = math.lcm(*(v.den for v in vectors))
    return [x * (d // v.den) for v in vectors for x in v.nums], d


def pivot_columns(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The pivot columns of an integer matrix: each column independent of the
    columns before it, read only until there are as many as rows.  Their
    count is the rank.

    A column is reduced, fraction-free, by each kept column in turn, each of
    which is zero at the leading entries of those kept before it; it is
    independent exactly when something is left.  Each step divides exactly by
    the pivot of the kept column before (Bareiss 1968): by Sylvester's
    identity, after k steps every entry is a (k + 1)-minor of the input, so
    the entries grow with the rank only linearly.
    """
    kept: list[tuple[int, list[int]]] = []
    pivots: list[int] = []
    for c, column in enumerate(zip(*rows)):
        prev = 1
        for lead, v in kept:
            p, f = v[lead], column[lead]
            column = [(p * x - f * y) // prev for x, y in zip(column, v)]
            prev = p
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
        return len(pivot_columns(self.int_rows()))

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


# ---------------------------------------------------------------------------
# Kronecker modules
# ---------------------------------------------------------------------------


class LinearForm(RatVector):
    """Element of V*: exact rational coefficients of x_0 .. x_n."""

    __slots__ = ()

    def __init__(self, n: int, coeffs):
        super().__init__(n + 1, coeffs)

    @property
    def n(self) -> int:
        return len(self.nums) - 1

    def __repr__(self) -> str:
        return f"LinearForm(n={self.n}, coeffs={self.to_json()})"


class KroneckerModule(RatMatrix):
    """2x2 matrix of linear forms on an (n+1)-dimensional space, n >= 2.

    A RatMatrix of 4 rows, the entries m11, m12, m21, m22, of n + 1
    coefficients each.  m11 .. m22 build their LinearForms when read.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, m11: LinearForm, m12: LinearForm, m21: LinearForm, m22: LinearForm):
        forms = (m11, m12, m21, m22)
        if any(f.n != n for f in forms):
            raise ValueError("all entries must share the ambient parameter n")
        self._store(*checked(n, *lowest_terms(*common_denominator(forms))))

    @classmethod
    def from_ints(cls, n: int, nums, den: int = 1) -> "KroneckerModule":
        """The module whose rows m11, m12, m21, m22, flattened, are nums / den."""
        M = object.__new__(cls)
        M._store(*checked(n, *lowest_terms(nums, den)))
        return M

    def _store(self, n: int, nums: tuple[int, ...], den: int) -> None:
        """Every constructor's storage of lowest-terms nums / den, which
        strata.checked has checked."""
        self.nums, self.den, self.rows, self.cols, self.n = nums, den, 4, n + 1, n

    def __repr__(self) -> str:
        return f"KroneckerModule(n={self.n}, matrix={self.to_json()['matrix']})"

    def entries(self):
        """((m11, m12), (m21, m22)) as LinearForms, not the matrix's rows of Fractions."""
        m11, m12, m21, m22 = (LinearForm.from_ints(r, self.den) for r in self.int_rows())
        return ((m11, m12), (m21, m22))

    m11 = property(lambda self: LinearForm.from_ints(self.int_rows()[0], self.den))
    m12 = property(lambda self: LinearForm.from_ints(self.int_rows()[1], self.den))
    m21 = property(lambda self: LinearForm.from_ints(self.int_rows()[2], self.den))
    m22 = property(lambda self: LinearForm.from_ints(self.int_rows()[3], self.den))

    def transpose(self) -> "KroneckerModule":
        """The module's 2 x 2 transpose, m12 and m21 swapped (not the 4 x (n + 1) matrix's)."""
        a, b, c, d = self.int_rows()
        return KroneckerModule.from_ints(self.n, a + c + b + d, self.den)

    def transform(self, A, B) -> "KroneckerModule":
        """A . M . B^{-1} for constant 2x2 matrices A, B (det B != 0).

        With A = A'/p, B = B'/q and M = M'/D over integers, B^{-1} is
        adj(B') q / det(B'), so the result is A' M' adj(B') over p D det(B') / q.
        """
        (a11, a12, a21, a22), p = rationals(x for row in A for x in row)
        (b11, b12, b21, b22), q = rationals(x for row in B for x in row)
        det_b = b11 * b22 - b12 * b21
        if det_b == 0:
            raise ValueError("B must be invertible")
        m11, m12, m21, m22 = self.int_rows()
        rows = []
        for x1, x2 in ((q * a11, q * a12), (q * a21, q * a22)):
            # a row of q A' M', times each column of adj(B')
            left = [x1 * u + x2 * v for u, v in zip(m11, m21)]
            right = [x1 * u + x2 * v for u, v in zip(m12, m22)]
            for y1, y2 in ((b22, -b21), (-b12, b11)):
                rows += [y1 * u + y2 * v for u, v in zip(left, right)]
        return KroneckerModule.from_ints(self.n, rows, p * self.den * det_b)

    def to_json(self) -> dict:
        m11, m12, m21, m22 = self.json_rows()
        return {"n": self.n, "matrix": [[m11, m12], [m21, m22]]}

    @classmethod
    def from_json(cls, doc: dict) -> "KroneckerModule":
        M = object.__new__(cls)
        M._store(*read_module(doc))
        return M


class Verdict(Enum):
    UNSTABLE = "unstable"
    STRICTLY_SEMISTABLE = "strictly_semistable"
    STABLE = "stable"


class Stratum(Enum):
    Y0 = "Y0"
    Z0 = "Z0"
    Y1 = "Y1"
    Z1 = "Z1"
    STABLE_LOCUS = "stable_locus"
    UNSTABLE_LOCUS = "unstable_locus"


class StabilizerKind(Enum):
    SL2_Z2 = "SL2_Z2"
    CSTAR_Z2 = "Cstar_Z2"
    FINITE = "finite"


class WitnessKind(Enum):
    ZERO_COLUMN = "zero_column"
    ZERO_ROW = "zero_row"
    RANK_DROP = "rank_drop"
    GCD_CERTIFICATE = "gcd_certificate"


class Witness(NamedTuple):
    """Destabilizing data: a rational vector when one exists, else the gcd form."""

    kind: WitnessKind
    vector: tuple[Fraction, Fraction] | None = None
    form: BinaryForm | None = None


class StabilityClass(NamedTuple):
    verdict: Verdict
    witness: Witness | None
    closed_orbit: bool | None
    stabilizer_kind: StabilizerKind | None


class QuadricForm(NamedTuple("QuadricForm", [("n", int), ("gram", RatMatrix)])):
    """Symmetric Gram matrix of a quadratic form on V."""

    __slots__ = ()

    def __new__(cls, n: int, gram: RatMatrix):
        if gram.rows != n + 1 or gram.cols != n + 1:
            raise ValueError("Gram matrix size must be n+1")
        if gram != gram.transpose():
            raise ValueError("Gram matrix must be symmetric")
        return super().__new__(cls, n, gram)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: check the new fields too
        return cls(*fields)


class CokernelKind(NamedTuple):
    """Shape of the cokernel sheaf determined by the determinant rank."""

    kind: str  # "twisted_ideal_of_quadric" | "plane_pair_extension"
    det_rank: int


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def index_pairs(n: int) -> list[tuple[int, int]]:
    """Lexicographic pairs i < j in {0..n}, the minor / wedge index set."""
    return list(combinations(range(n + 1), 2))


def pencil_matrix(M: KroneckerModule, s, t) -> RatMatrix:
    """The 2 x (n+1) coefficient matrix of M(s, t) = s * column1 + t * column2."""
    (p, u), q = rationals((s, t))
    a1, b1, a2, b2 = M.int_rows()
    rows = [p * a + u * b for a, b in (*zip(a1, b1), *zip(a2, b2))]
    return RatMatrix.from_ints(rows, q * M.den, M.n + 1)


def column_minors(M: KroneckerModule) -> list[BinaryForm]:
    """2x2 minors of the coefficient matrix of Mv for v = (s, t).

    Entry (k, i) of that matrix is the linear form s * (x_i coefficient of
    m_k1) + t * (x_i coefficient of m_k2); the minor over columns i < j is a
    binary quadratic.  Minors are listed in lexicographic pair order.
    """
    return [BinaryForm.from_ints(t, M.den * M.den) for t in integer_minors(*M.int_rows())]


def minor_gcd(M: KroneckerModule):
    """Gcd of all column minors; ALL_ZERO exactly on the scalar-matrix locus."""
    return quadratic_gcd(integer_minors(*M.int_rows()))


def stratify(M: KroneckerModule) -> Stratum:
    """Locate M in the stratification of the semistable locus by orbit type."""
    return Stratum(decide(M.nums)[0])


def classify_stability(M: KroneckerModule) -> StabilityClass:
    """Full GIT verdict with witness, orbit closedness, and stabilizer kind."""
    stratum, found = decide(M.nums)
    verdict, closed, stabilizer = CLASSES[stratum]
    witness = None
    if found is not None:
        kind, point, form = found
        witness = (Witness(WitnessKind(kind), form=BinaryForm.from_ints(form)) if point is None else
                   Witness(WitnessKind(kind), vector=tuple(map(fraction_type(), vector_strings(kind, *point)))))
    stabilizer = None if stabilizer is None else StabilizerKind(stabilizer)
    return StabilityClass(Verdict(verdict), witness, closed, stabilizer)


def _det_gram(a, b, c, d, indices) -> list[list[int]]:
    """The rows of twice the Gram matrix of a*d - b*c restricted to the given coordinates."""
    return [[a[i] * d[j] + a[j] * d[i] - b[i] * c[j] - b[j] * c[i] for j in indices] for i in indices]


def det_quadric(M: KroneckerModule) -> QuadricForm:
    """Symmetric Gram matrix of det M = m11 m22 - m12 m21."""
    gram = _det_gram(*M.int_rows(), range(M.n + 1))
    return QuadricForm(M.n, RatMatrix.from_ints(chain.from_iterable(gram), 2 * M.den * M.den, M.n + 1))


def quadric_rank(Q: QuadricForm) -> int:
    return Q.gram.rank()


def cokernel_kind(M: KroneckerModule) -> CokernelKind:
    """Shape of the cokernel of 2O(-1) -> 2O given by a semistable module.

    Determinant rank 3 or 4 gives a twisted ideal sheaf of a codimension-two
    linear space inside an irreducible quadric; rank <= 2 gives an extension
    of two hyperplane structure sheaves.

    The Gram matrix of a*d - b*c is W K W^T for W = [a b c d] and a constant
    4 x 4 matrix K.  If the coordinates P give r = rank W independent rows
    W_P, then W = T W_P with T of full column rank, so the determinant rank is
    the rank of the r x r block of the Gram matrix on P.  The rows of W are
    read in coordinate order, each kept when independent of those before it,
    and reading stops once four are kept (pivot_columns); the same scan
    counts the rank of the block's integer rows, which its denominator leaves alone.
    """
    a, b, c, d = M.int_rows()
    if destabilizing_witness(a, b, c, d) is not None:
        raise NotSemistable("cokernel shape is defined for semistable modules only")
    pivots = pivot_columns([a, b, c, d])
    r = len(pivot_columns(_det_gram(a, b, c, d, pivots)))
    if r >= 3:
        return CokernelKind("twisted_ideal_of_quadric", r)
    return CokernelKind("plane_pair_extension", r)
