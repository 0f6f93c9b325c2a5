"""Virtual Poincare polynomials of the moduli spaces in play, exactly.

Everything is computed symbolically in the variable q (the class of the
affine line, so deg P(X) = dim X).  Each fixed-shape formula (P^n, MbarP,
MbarGr, T4 and the sheaf moduli) is one sparse numerator over one product of
(1 - q^b) factors: the numerator is a signed sum of products of two-term
factors (1 - q^e), each exponent e a constant or n + c, so it is expanded
once, at import, with n symbolic, into terms c q^(a n + b) (28 for T4, from
7 * 32), and a call lays them out as one coefficient list at its n.  T4 and
the sheaf moduli sum their excision terms over the common denominator
(1-q)^3 (1-q^2)^2.  _ratio divides the list exactly by each run of equal
denominator factors in one pass of running sums: a run of (1 - q) factors
chains its running sums over the whole list, and a run of (1 - q^b), b >= 2,
runs them over each residue class mod b.  Every partial division is
exact: if a product of factors divides N, so does each sub-product of it.
Gaussian binomials are the exception: their numerator would have up to 2^k
terms, so _ratio applies their numerator factors one at a time between the
divisions.  A nonzero remainder raises NotDivisible: the formulas are all
claimed to have polynomial values, so a remainder means a transcription or
implementation bug, never data.

The symmetric square rule P(Sym^2 X) = (P(X)(q)^2 + P(X)(q^2)) / 2 is the one
place a half-integer appears; integrality of the result is enforced.

One table (_SPACES) gives each space tag its identifier class, the fields a
request document names and its formula; poincare dispatches on it, and
space_from_json reads an identifier document through it, under the degree
cap MAX_POINCARE_DEGREE, so poincare_text serves a poincare request alone.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from operator import sub
from typing import NamedTuple, Union

from .errors import NonIntegral, NotDivisible
from .qpoly import QPoly
from .wire import SCHEMA_VERSION, JsonText


class _Linear(tuple):
    """a n + b for a symbolic n, as the pair (a, b); adding an int moves b."""

    __slots__ = ()

    def __add__(self, c: int) -> "_Linear":
        return _Linear((self[0], self[1] + c))

    def __sub__(self, c: int) -> "_Linear":
        return self + -c


def _numerator(*products) -> tuple[tuple[int, int, int], ...]:
    """The sum of the signed products of two-term factors, as its nonzero
    terms (a, b, c), each standing for c q^(a n + b).

    Each product is (sign, e1, ..., ek), standing for sign (1 - q^e1) ... (1 - q^ek),
    each exponent an int b or a _Linear (a, b); it has at most 2^k terms.
    """
    out: dict[tuple[int, int], int] = {}
    for sign, *exps in products:
        terms = [((0, 0), sign)]
        for e in exps:
            a, b = e if isinstance(e, tuple) else (0, e)
            terms += [((x + a, y + b), -c) for (x, y), c in terms]
        for e, c in terms:
            out[e] = out.get(e, 0) + c
    return tuple((a, b, c) for (a, b), c in out.items() if c)


def _layout(terms, n: int = 0) -> list[int]:
    """The coefficient list of the sum of the terms c q^(a n + b) at n.
    Exponents that meet at this n add up; a top one may cancel to a zero."""
    cs = [0] * (max(a * n + b for a, b, _ in terms) + 1) if terms else []
    for a, b, c in terms:
        cs[a * n + b] += c
    return cs


def _ratio(cs: list[int], downs, ups=()) -> QPoly:
    """cs times the (1 - q^a) for a in ups, over the product of the (1 - q^b) for b in downs.

    cs is a coefficient list, lowest degree first, which _ratio consumes.
    Step i < len(ups) multiplies it by 1 - q^ups[i] (a shift and a
    subtraction), then divides it by 1 - q^downs[i]; the other downs are
    divided in runs of equal factors.  Over (1 - q^b)^m a list of length L
    is its m-fold running sums with stride b, the quotient's power series
    mod q^L, in one pass, O(m L): for b = 1, m chained accumulates over the
    whole list, made a list once; for b >= 2, the same over each residue
    class's slice, assigned back.  That is exact iff the top m b sums are
    zero: if (1 - q^b)^m divides cs, the series is the quotient, of degree
    below L - m b; if they are zero, the rest S has degree below L - m b, and
    (1 - q^b)^m S, of degree below L, agrees with cs mod q^L, so it is cs.
    A run thus refuses exactly what its factors would one at a time.  The
    zero sums are dropped; a nonzero one raises NotDivisible, never a
    truncated result.  ups longer than downs raises ValueError.  The caller
    orders the steps so that every partial result is a polynomial.
    """
    if len(ups) > len(downs):
        raise ValueError("more paired numerator factors than denominator factors")
    runs = [(b, 1) for b in downs[:len(ups)]]
    runs += [(b, len(list(run))) for b, run in groupby(downs[len(ups):])]
    for i, (b, m) in enumerate(runs):
        if i < len(ups):
            pad = [0] * ups[i]
            cs = list(map(sub, cs + pad, pad + cs))
        if b == 1:
            for _ in range(m):
                cs = accumulate(cs)
            cs = list(cs)
        else:
            for r in range(b):
                sums = cs[r::b]
                for _ in range(m):
                    sums = accumulate(sums)
                cs[r::b] = sums
        if any(cs[-m * b:]):
            power = f"^{m}" if m > 1 else ""
            raise NotDivisible(f"(1 - q^{b}){power} does not divide the partial product")
        del cs[-m * b:]
    return QPoly.from_ints(cs)


# The common denominator of MbarGr, T4 and the sheaf moduli, (1-q)^3 (1-q^2)^2.
_DEN = (1, 1, 1, 2, 2)


def _products(n) -> dict[str, tuple]:
    """The signed products (see _numerator) of each fixed-shape formula's
    numerator; T4's are those of P(T4(n)) (1-q)^3 (1-q^2)^2, see t4_poincare."""
    mbar_gr = (1, 4, n, n + 1, n, n - 1)
    return {
        "Pn": ((1, n + 1),),
        "MbarP": ((1, n + 1, n, n - 1),),
        "MbarGr": (mbar_gr,),
        "T4": (
            mbar_gr,  # P(MbarGr(n))
            (-1, n + 1, n + 1, n, n - 1, 2),  # - [n+1] P(MbarP(n))
            (1, n + 1, 1, 1, 2, 2),  # + [n+1]
            # - ([n-1]^2 - 1) pairs, both differences multiplied out
            (-1, n - 1, n - 1, n + 2, n + 1, 2),
            (1, n - 1, n - 1, n + 1, 2, 2),
            (1, 1, 1, n + 2, n + 1, 2),
            (-1, 1, 1, n + 1, 2, 2),
        ),
    }


# Each formula's terms, expanded once with n symbolic.
_TERMS = {name: _numerator(*products) for name, products in _products(_Linear((1, 0))).items()}


def proj_space_poincare(n: int) -> QPoly:
    """P(P^n) = (1 - q^(n+1)) / (1 - q) = 1 + q + ... + q^n."""
    ProjSpace(n)  # checks the domain
    return _ratio(_layout(_TERMS["Pn"], n), (1,))


def grassmannian_poincare(k: int, big_n: int) -> QPoly:
    """Gaussian binomial (big_n choose k)_q, the Poincare polynomial of Gr(k, N).

    The product over i <= k of (1 - q^(N-k+i)) / (1 - q^i), with k replaced
    by min(k, N - k) since Gr(k, N) = Gr(N - k, N).  After step i the value
    is the Gaussian binomial (N-k+i choose i)_q, so each division is exact,
    and no intermediate exceeds the answer's degree k(N-k) by more than k.
    The numerator factors are applied one per step rather than expanded
    first: expanded, the numerator would have up to 2^k terms.
    """
    Grassmannian(k, big_n)  # checks the domain
    k = min(k, big_n - k)
    return _ratio([1], range(1, k + 1), range(big_n - k + 1, big_n + 1))


def kontsevich_proj_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to P^(n-1):
    (1-q^(n+1))(1-q^n)(1-q^(n-1)) / ((1-q)^2 (1-q^2)).
    """
    KontsevichProj(n)  # checks the domain
    return _ratio(_layout(_TERMS["MbarP"], n), (1, 1, 2))


def mbar_gr_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to the Grassmannian of codimension-2 subspaces of
    an (n+1)-dimensional space:

    [(1+q^(n+1))(1+q^3) - q(1+q)(q^2+q^(n-1))] (1-q^(n+1))(1-q^n)(1-q^(n-1))
    over (1-q)^3 (1-q^2)^2.  The bracket is (1-q^4)(1-q^n).  Degree 4n - 3,
    palindromic.
    """
    MbarGr(n)  # checks the domain
    return _ratio(_layout(_TERMS["MbarGr"], n), _DEN)


def sym2_poincare(p: QPoly) -> QPoly:
    """P of the symmetric square: (p(q)^2 + p(q^2)) / 2, integrality enforced."""
    doubled = (p * p + p.subst_q_power(2)).coeffs
    if any(c % 2 for c in doubled):
        raise NonIntegral("symmetric square half is not integer-valued")
    return QPoly.from_ints([c // 2 for c in doubled])


def t4_poincare(n: int) -> QPoly:
    """The double cover of the rank <= 4 quadric locus in P(Sym^2 V*), dim V = n+1.

    Computed by excising the two exceptional fiber types of the contraction
    from the stable-map space: over the double-hyperplane locus (a P^n) the
    fiber is the space of degree-2 stable maps to P^(n-1); over distinct
    hyperplane pairs (Sym^2 P^n, whose Poincare polynomial is the Gaussian
    binomial (n+2 choose 2)_q, minus the diagonal) it is (P^(n-2))^2:

        P(MbarGr(n)) - [n+1] P(MbarP(n)) + [n+1] - ([n-1]^2 - 1) pairs,

    with [m] = (1 - q^m) / (1 - q) = P(P^(m-1)) and pairs = (n+2 choose 2)_q - [n+1].
    Every term has a denominator dividing (1-q)^3 (1-q^2)^2, so the sum is
    one sparse numerator over it:

        (1-q^4)(1-q^n)(1-q^(n+1))(1-q^n)(1-q^(n-1))
        - (1-q^(n+1))^2 (1-q^n)(1-q^(n-1))(1-q^2)
        + (1-q^(n+1))(1-q)^2 (1-q^2)^2
        - ((1-q^(n-1))^2 - (1-q)^2) ((1-q^(n+2))(1-q^(n+1)) - (1-q^(n+1))(1-q^2)) (1-q^2),

    7 * 32 terms that cancel to 28 in n, divided by (1-q)^3, then by
    (1-q^2)^2.  Each partial division is exact: the denominator divides the
    numerator N, so does every sub-product of it, and N over a sub-product
    is a polynomial.
    """
    T4(n)  # checks the domain
    return _ratio(_layout(_TERMS["T4"], n), _DEN)


# Reference value of the degree-17 polynomial for the sheaf moduli space
# below; the computation must reproduce it exactly.
_MP2_4M2_COEFFS = (1, 2, 5, 9, 12, 12, 12, 10, 10, 9, 10, 10, 11, 11, 9, 5, 2, 1)

# The two wall-crossing excisions of the sheaf moduli over T4's denominator,
# expanded once; their terms are constants.
_MP2_4M2_EXCISIONS = _numerator(
    (1, 15, 1, 1, 2, 2),  # P(P^14) - P(P^2) = ((1-q^15) - (1-q^3)) / (1-q)
    (-1, 3, 1, 1, 2, 2),
    (1, 3, 3, 13, 2, 2),  # P(P^2)^2 (P(P^12) - 1) = [3]^2 ((1-q^13) - (1-q)) / (1-q)
    (-1, 3, 3, 1, 2, 2),
)


def mp2_4m2_poincare() -> QPoly:
    """Moduli of one-dimensional semistable sheaves on P^2 with Hilbert polynomial 4m+2.

    Assembled from two wall-crossing excisions and the n = 5 double cover:
    (P(P^14) - P(P^2)) + P(P^2 x P^2)(P(P^12) - 1) + P(T4(5)), as one sparse
    numerator over T4's denominator (1-q)^3 (1-q^2)^2: T4's terms laid out at
    n = 5 plus the excisions' terms.
    """
    value = _ratio(_layout(_TERMS["T4"] + _MP2_4M2_EXCISIONS, 5), _DEN)
    if value != QPoly(_MP2_4M2_COEFFS):
        raise RuntimeError(
            "internal consistency failure: sheaf-moduli polynomial does not match "
            "its reference value"
        )
    return value


# ---------------------------------------------------------------------------
# Space identifiers (CLI-facing)
#
# Each identifier checks its formula's domain when constructed (the formula
# functions construct it for that check), and knows its dimension, the degree
# of its Poincare polynomial, so a caller can bound a request's cost before
# any product is formed.
# ---------------------------------------------------------------------------


class _Space(tuple):
    """Base of the identifiers: a tuple of its fields that equals only an
    identifier of its own type, so T4(3) != MbarGr(3); a checked one's
    _replace checks too."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class ProjSpace(_Space, NamedTuple("ProjSpace", [("n", int)])):
    __slots__ = ()

    def __new__(cls, n: int):
        if n < 0:
            raise ValueError("projective space dimension must be >= 0")
        return super().__new__(cls, n)

    @property
    def dimension(self) -> int:
        return self.n


class Grassmannian(_Space, NamedTuple("Grassmannian", [("k", int), ("big_n", int)])):
    __slots__ = ()

    def __new__(cls, k: int, big_n: int):
        if not 0 <= k <= big_n:
            raise ValueError("need 0 <= k <= N")
        return super().__new__(cls, k, big_n)

    @property
    def dimension(self) -> int:
        return self.k * (self.big_n - self.k)


class KontsevichProj(_Space, NamedTuple("KontsevichProj", [("n", int)])):
    __slots__ = ()

    def __new__(cls, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        return super().__new__(cls, n)

    @property
    def dimension(self) -> int:
        return 3 * self.n - 4


class MbarGr(_Space, NamedTuple("MbarGr", [("n", int)])):
    __slots__ = ()

    def __new__(cls, n: int):
        if n < 3:
            raise ValueError("need n >= 3")
        return super().__new__(cls, n)

    @property
    def dimension(self) -> int:
        return 4 * self.n - 3


class Sym2Of(_Space, NamedTuple("Sym2Of", [("inner", "SpaceId")])):
    __slots__ = ()

    @property
    def dimension(self) -> int:
        return 2 * self.inner.dimension


class T4(_Space, NamedTuple("T4", [("n", int)])):
    __slots__ = ()

    def __new__(cls, n: int):
        if n < 3:
            raise ValueError("the double symmetroid needs n >= 3")
        return super().__new__(cls, n)

    @property
    def dimension(self) -> int:
        return 4 * self.n - 3


class MP24m2(_Space, NamedTuple("MP24m2", [])):
    __slots__ = ()
    dimension = 17


SpaceId = Union[ProjSpace, Grassmannian, KontsevichProj, MbarGr, Sym2Of, T4, MP24m2]

# Per space tag of a request document: its identifier class, the integer
# fields that document gives, and its formula.  The fields are the formula's
# arguments, in order, so an identifier's formula is formula(*space).  Sym2
# is handled apart: it wraps another identifier and doubles its degree.
_SPACES = {
    "Pn": (ProjSpace, ("n",), proj_space_poincare),
    "Gr": (Grassmannian, ("k", "N"), grassmannian_poincare),
    "MbarP": (KontsevichProj, ("n",), kontsevich_proj_poincare),
    "MbarGr": (MbarGr, ("n",), mbar_gr_poincare),
    "T4": (T4, ("n",), t4_poincare),
    "MP2-4m+2": (MP24m2, (), mp2_4m2_poincare),
}
_FORMULAS = {cls: formula for cls, _, formula in _SPACES.values()}


def poincare(space: SpaceId) -> QPoly:
    """Virtual Poincare polynomial of a described space."""
    if type(space) is Sym2Of:
        return sym2_poincare(poincare(space.inner))
    if type(space) not in _FORMULAS:
        raise TypeError(f"unknown space identifier: {space!r}")
    return _FORMULAS[type(space)](*space)


# The largest degree of a Poincare polynomial the CLI computes, checked on
# the identifier before any product is formed.  The costliest requests within
# it nest Sym2 eight or more levels deep, each level doubling the bit length
# of the coefficients: Sym2^8 of MbarGr(4) takes 0.6-0.9 s on a 2-vCPU Xeon
# with Python 3.11, nearly all of it in its big-integer squarings.
MAX_POINCARE_DEGREE = 4000


def space_from_json(doc) -> SpaceId:
    """The space an identifier document names, if its Poincare degree is
    within the cap.

    Sym2 levels are unwound without recursion.  A degree below 1 still
    doubles per level in the bound, so the level count is bounded too.
    """
    levels = 0
    while isinstance(doc, dict) and doc.get("space") == "Sym2":
        levels += 1
        doc = doc.get("inner")
    if levels and doc is None:
        raise ValueError("space Sym2 requires an 'inner' space identifier")
    if not isinstance(doc, dict) or "space" not in doc:
        raise ValueError("space identifier must be an object with a 'space' key")
    tag = doc["space"]
    if tag not in _SPACES:
        raise ValueError(f"unknown space identifier {tag!r}")
    cls, fields, _ = _SPACES[tag]
    values = [doc.get(field) for field in fields]
    for field, value in zip(fields, values):
        if type(value) is not int:
            raise ValueError(f"space {tag} requires an integer {field!r}")
    space = cls(*values)
    if max(space.dimension, 1) << levels > MAX_POINCARE_DEGREE:
        raise ValueError(f"the Poincare polynomial would exceed degree {MAX_POINCARE_DEGREE}")
    for _ in range(levels):
        space = Sym2Of(space)
    return space


def poincare_text(doc: dict) -> JsonText:
    """The CLI poincare document of a space identifier document, schema_version included."""
    poly = poincare(space_from_json(doc)).json_text()
    return JsonText(f'{{"poly":{poly},"schema_version":{SCHEMA_VERSION}}}')
