"""GIT classification of 2x2 matrices of linear forms (Kronecker modules).

A module is a point of P(V* (x) gl_2) with dim V = n + 1, acted on by
SL_2 x SL_2 through row and column operations with constant coefficients.
The classifier decides stability, locates semistable points in the orbit-type
stratification Y0 / Z0 / Y1 / Z1 / stable locus, and computes the determinant
quadric together with its rank.

Decision procedure.  Instability is the existence of a constant nullvector on
either side (a zero row or column after row/column operations); since the
coefficient matrices are rational, a witness exists over Q whenever it exists
at all.  Strict semistability is the existence of some direction v = (s, t)
along which the two entries of Mv become proportional linear forms, i.e. the
2 x (n+1) coefficient matrix of Mv drops to rank <= 1; that is detected by
the gcd of its 2x2 minors, a family of binary quadratics in (s, t).  The gcd
structure separates the orbit types:

    all minors zero          -> Y0 (scalar matrices)
    gcd with a double root   -> Z0 (triangular, proportional diagonal)
    gcd with distinct roots  -> Y1 (non-scalar diagonal), even when the roots
                                are an irrational conjugate pair
    gcd of degree 1          -> Z1 (generic triangular)
    gcd of degree 0          -> stable

Scaling every entry by a nonzero constant changes nothing above, so verdicts
only depend on the projective class.  A module is a RatMatrix: four integer
rows over one denominator, brought there once when it is constructed, and
each entry point decides everything with those rows' Python ints, as if the
denominator were 1: proportional columns or rows by cross products, and the
minor gcd from the span of the minors, which is at most 3-dimensional (see
linalg.gcd_coefficients).  _decide is the one decision: it returns the stratum
and the witness as integers.  classify_stability and stratify build their
records from it, and stability_text and stratify_text write the CLI documents
from it, each a fixed text per stratum plus the witness, with no Fraction.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from math import gcd as _int_gcd
from typing import NamedTuple

from .errors import NotSemistable
from .linalg import (
    BinaryForm,
    RatMatrix,
    RatVector,
    RootKind,
    common_denominator,
    gcd_coefficients,
    pivot_columns,
    quadratic_gcd,
    root_points,
)
from .wire import SCHEMA_VERSION, JsonText, fraction_type, json_array, json_strings, lowest_terms, rationals


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
        self._store(n, *lowest_terms(*common_denominator(forms)))

    @classmethod
    def from_ints(cls, n: int, nums, den: int = 1) -> "KroneckerModule":
        """The module whose rows m11, m12, m21, m22, flattened, are nums / den."""
        M = object.__new__(cls)
        M._store(n, *lowest_terms(nums, den))
        return M

    def _store(self, n: int, nums: tuple[int, ...], den: int) -> None:
        """Every constructor's storage of lowest-terms nums / den, after the one
        check of n, the length and the zero matrix."""
        if n < 2:
            raise ValueError("ambient parameter n must be >= 2")
        if len(nums) != 4 * (n + 1):
            raise ValueError(f"expected {4 * (n + 1)} coefficients, got {len(nums)}")
        if not any(nums):
            raise ValueError("the zero matrix is not a point of the projective space")
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
        n, forms = json_n_and_entries(doc)
        M = object.__new__(cls)
        # rationals gives lowest terms already
        M._store(n, *rationals(json_coefficients(n, forms)))
        return M


def json_n(doc: dict) -> int:
    """A module, family or conic document's integer (not boolean) 'n'."""
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("'n' must be an integer")
    return n


def json_n_and_entries(doc: dict) -> tuple[int, list]:
    """A module or family document's 'n' and the four entries, in row order,
    of its 2x2 'matrix' of arrays."""
    n = json_n(doc)
    rows = json_array(doc["matrix"], "'matrix'")
    if len(rows) != 2 or any(len(json_array(r, "a row of 'matrix'")) != 2 for r in rows):
        raise ValueError("'matrix' must be 2x2")
    return n, [json_array(e, "an entry") for row in rows for e in row]


def json_coefficients(n: int, forms: list) -> list:
    """The coefficients of linear forms given as JSON arrays, one form after
    another, each form checked to hold n + 1 of them."""
    for f in forms:
        if len(f) != n + 1:
            raise ValueError(f"expected {n + 1} coefficients, got {len(f)}")
    return [x for f in forms for x in f]


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


def integer_minors(a1, b1, a2, b2):
    """Coefficient triples (s^2, st, t^2) of the 2x2 minors of the pencil rows
    s * a1 + t * b1 and s * a2 + t * b2, lazily, in index_pairs order."""
    size = len(a1)
    for i in range(size):
        a1i, b1i, a2i, b2i = a1[i], b1[i], a2[i], b2[i]
        for j in range(i + 1, size):
            a1j, b1j, a2j, b2j = a1[j], b1[j], a2[j], b2[j]
            yield (
                a1i * a2j - a1j * a2i,
                a1i * b2j + b1i * a2j - a1j * b2i - b1j * a2i,
                b1i * b2j - b1j * b2i,
            )


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


def _dependency(u, w) -> tuple[int, int] | None:
    """Coprime (v0, v1), first nonzero entry positive, with v0 u + v1 w = 0;
    None when the integer vectors u and w are independent."""
    k = next((i for i, x in enumerate(u) if x), None)
    if k is None:
        return (1, 0)
    uk, wk = u[k], w[k]
    if any(uk * y != wk * x for x, y in zip(u, w)):
        return None
    g = _int_gcd(uk, wk)
    v0, v1 = wk // g, -uk // g
    return (v0, v1) if v0 > 0 or (v0 == 0 and v1 > 0) else (-v0, -v1)


def _destabilizing_witness(a1, b1, a2, b2) -> tuple[WitnessKind, tuple[int, int], None] | None:
    """(kind, v, None) for an integer v with Mv = 0 (a zero column) or else
    with v^T M = 0 (a zero row), or None when neither exists.

    Such v exists exactly when the two columns of M are proportional, or the
    two rows; integer cross products decide both.
    """
    for kind, u, w in (
        (WitnessKind.ZERO_COLUMN, a1 + a2, b1 + b2),
        (WitnessKind.ZERO_ROW, a1 + b1, a2 + b2),
    ):
        v = _dependency(u, w)
        if v is not None:
            return kind, v, None
    return None


# Per stratum: the verdict, whether the orbit is closed, and the stabilizer.
_CLASSES = {
    Stratum.UNSTABLE_LOCUS: (Verdict.UNSTABLE, None, None),
    Stratum.Y0: (Verdict.STRICTLY_SEMISTABLE, True, StabilizerKind.SL2_Z2),
    Stratum.Z0: (Verdict.STRICTLY_SEMISTABLE, False, None),
    Stratum.Y1: (Verdict.STRICTLY_SEMISTABLE, True, StabilizerKind.CSTAR_Z2),
    Stratum.Z1: (Verdict.STRICTLY_SEMISTABLE, False, None),
    Stratum.STABLE_LOCUS: (Verdict.STABLE, True, StabilizerKind.FINITE),
}


def _decide(M: KroneckerModule) -> tuple[Stratum, tuple | None]:
    """(stratum, witness) from one integer pass.

    The witness of an unstable module is _destabilizing_witness's.  That of a
    strictly semistable one is (RANK_DROP, (s, t), None) for a rational root
    (s : t) of the minor gcd, as root_points writes it ((1, 0) on Y0, where
    every direction drops the rank), or (GCD_CERTIFICATE, None, the gcd's
    coefficients) when its two roots are irrational.  A stable module has none.
    """
    a1, b1, a2, b2 = M.int_rows()
    w = _destabilizing_witness(a1, b1, a2, b2)
    if w is not None:
        return Stratum.UNSTABLE_LOCUS, w
    g = gcd_coefficients(integer_minors(a1, b1, a2, b2))
    if g is None:
        return Stratum.Y0, (WitnessKind.RANK_DROP, (1, 0), None)
    if len(g) == 1:
        return Stratum.STABLE_LOCUS, None
    kind, points, _ = root_points(g)
    stratum = (Stratum.Z1 if len(g) == 2 else
               Stratum.Y1 if kind is RootKind.TWO_DISTINCT_ROOTS else Stratum.Z0)
    if points:
        return stratum, (WitnessKind.RANK_DROP, points[0], None)
    return stratum, (WitnessKind.GCD_CERTIFICATE, None, g)


def stratify(M: KroneckerModule) -> Stratum:
    """Locate M in the stratification of the semistable locus by orbit type."""
    return _decide(M)[0]


def classify_stability(M: KroneckerModule) -> StabilityClass:
    """Full GIT verdict with witness, orbit closedness, and stabilizer kind."""
    stratum, found = _decide(M)
    verdict, closed, stabilizer = _CLASSES[stratum]
    witness = None
    if found is not None:
        kind, point, form = found
        witness = (Witness(kind, form=BinaryForm.from_ints(form)) if point is None
                   else Witness(kind, vector=tuple(map(fraction_type(), _vector_strings(kind, *point)))))
    return StabilityClass(verdict, witness, closed, stabilizer)


def _vector_strings(kind: WitnessKind, s: int, t: int) -> list[str]:
    """The wire strings of the witness vector at _decide's integer point (s, t):
    (s/t, 1) for a rank drop with t > 1, and (s, t) itself otherwise."""
    return [f"{s}/{t}", "1"] if kind is WitnessKind.RANK_DROP and t > 1 else [str(s), str(t)]


def _json_value(value) -> str:
    """The JSON text of None, a bool, or an Enum member whose value needs no escaping."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    return f'"{value.value}"'


# Per stratum: the CLI stability document up to its witness, as the CLI's
# encoder writes it (sorted keys, compact).
_STABILITY_HEADS = {
    stratum: (f'{{"closed_orbit":{_json_value(closed)},"schema_version":{SCHEMA_VERSION},'
              f'"stabilizer":{_json_value(stabilizer)},"verdict":{_json_value(verdict)},"witness":')
    for stratum, (verdict, closed, stabilizer) in _CLASSES.items()
}

# Per stratum: the whole CLI stratify document.
_STRATIFY_TEXTS = {
    stratum: JsonText(f'{{"schema_version":{SCHEMA_VERSION},"stratum":"{stratum.value}"}}')
    for stratum in Stratum
}


def stability_text(M: KroneckerModule) -> JsonText:
    """The CLI stability document of M, schema_version included: its stratum's
    fixed members, then the witness written from _decide's integers with the
    strings str(Fraction) gives."""
    stratum, found = _decide(M)
    head = _STABILITY_HEADS[stratum]
    if found is None:
        return JsonText(head + "null}")
    kind, point, form = found
    vector = "null" if point is None else json_strings(_vector_strings(kind, *point))
    form = "null" if form is None else json_strings([str(c) for c in form])
    return JsonText(f'{head}{{"form":{form},"kind":"{kind.value}","vector":{vector}}}}}')


def stratify_text(M: KroneckerModule) -> JsonText:
    """The CLI stratify document of M, schema_version included."""
    return _STRATIFY_TEXTS[stratify(M)]


def _det_gram(a, b, c, d, indices, den: int = 1) -> RatMatrix:
    """The Gram matrix of (a*d - b*c) / den^2 restricted to the given coordinates."""
    return RatMatrix.from_ints(
        [a[i] * d[j] + a[j] * d[i] - b[i] * c[j] - b[j] * c[i] for i in indices for j in indices],
        2 * den * den, len(indices))


def det_quadric(M: KroneckerModule) -> QuadricForm:
    """Symmetric Gram matrix of det M = m11 m22 - m12 m21."""
    return QuadricForm(M.n, _det_gram(*M.int_rows(), range(M.n + 1), M.den))


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
    and reading stops once four are kept (linalg.pivot_columns).
    """
    a, b, c, d = M.int_rows()
    if _destabilizing_witness(a, b, c, d) is not None:
        raise NotSemistable("cokernel shape is defined for semistable modules only")
    pivots = pivot_columns([a, b, c, d])
    r = _det_gram(a, b, c, d, pivots).rank()
    if r >= 3:
        return CokernelKind("twisted_ideal_of_quadric", r)
    return CokernelKind("plane_pair_extension", r)
