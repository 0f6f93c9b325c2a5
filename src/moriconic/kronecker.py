"""GIT classification of 2x2 matrices of linear forms (Kronecker modules).

A module is a point of P(V* (x) gl_2) with dim V = n + 1, acted on by
SL_2 x SL_2 through row and column operations with constant coefficients.
The classifier decides stability, locates semistable points in the orbit-type
stratification Y0 / Z0 / Y1 / Z1 / stable locus, and computes the determinant
quadric together with its rank.

A module is a RatMatrix: four integer rows over one denominator, brought
there once when it is constructed.  The decision procedure and its one
routine, strata.decide, live in strata, which works on those rows' ints with
no Enum and no record, and which the CLI's stability and stratify requests
load alone; strata.read_module is the one reader of a module document.
classify_stability and stratify map decide's strings to Stratum, Verdict,
StabilizerKind and WitnessKind and build their records from it.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, combinations
from typing import NamedTuple

from .errors import NotSemistable
from .linalg import BinaryForm, RatMatrix, RatVector, common_denominator, pivot_columns, quadratic_gcd
from .strata import CLASSES, checked, decide, destabilizing_witness, integer_minors, read_module, vector_strings
from .wire import fraction_type, lowest_terms, rationals


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
    and reading stops once four are kept (linalg.pivot_columns); the same scan
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
