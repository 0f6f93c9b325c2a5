"""Virtual Poincare polynomials of the moduli spaces in play, exactly.

Everything is computed symbolically in the variable q (the class of the
affine line, so deg P(X) = dim X).  Each fixed-shape formula (P^n, MbarP,
MbarGr, T4 and the sheaf moduli) is one sparse numerator over one product of
(1 - q^b) factors: the numerator is a signed sum of products of two-term
factors (1 - q^a), expanded as a map from exponent to coefficient with at
most 32 terms per product at any n; T4 and the sheaf moduli sum their
excision terms over the common denominator (1-q)^3 (1-q^2)^2.  _ratio lays
the numerator out as one coefficient list and divides it exactly by each
denominator factor in turn (running sums).  Every partial division is exact:
if a product of factors divides N, so does each sub-product of it.  Gaussian
binomials are the exception: their numerator would have up to 2^k terms, so
_ratio applies their numerator factors one at a time between the divisions.
A nonzero remainder raises NotDivisible: the formulas are all claimed to have
polynomial values, so a remainder means a transcription or implementation
bug, never data.

The symmetric square rule P(Sym^2 X) = (P(X)(q)^2 + P(X)(q^2)) / 2 is the one
place a half-integer appears; integrality of the result is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Union

from .errors import NonIntegral, NotDivisible
from .qpoly import QPoly


def _numerator(*products) -> dict[int, int]:
    """The sum of the signed products of two-term factors, as exponent -> coefficient.

    Each product is (sign, a1, ..., ak), standing for sign (1 - q^a1) ... (1 - q^ak);
    it has at most 2^k terms, whatever the exponents.
    """
    out: dict[int, int] = {}
    for sign, *exps in products:
        terms = [(0, sign)]
        for a in exps:
            terms += [(e + a, -c) for e, c in terms]
        for e, c in terms:
            out[e] = out.get(e, 0) + c
    return out


def _ratio(num: dict[int, int], downs, ups=()) -> QPoly:
    """num times the (1 - q^a) for a in ups, over the product of the (1 - q^b) for b in downs.

    The sparse numerator num (exponent -> coefficient) is laid out as one
    coefficient list.  Step i multiplies it by 1 - q^ups[i], if ups has an
    i-th entry (a shift and a subtraction), then divides it exactly by
    1 - q^downs[i], at O(degree) per step: over 1 - q^b is its running sums
    with stride b (the quotient's power series), exact iff the top b sums
    are zero.  Those are dropped; a nonzero one raises NotDivisible, never a
    truncated result.  ups longer than downs raises ValueError.  The caller
    orders the steps so that every partial result is a polynomial.
    """
    if len(ups) > len(downs):
        raise ValueError("more paired numerator factors than denominator factors")
    cs = [0] * (max((e for e, c in num.items() if c), default=-1) + 1)
    for e, c in num.items():
        if c:
            cs[e] = c
    for i, b in enumerate(downs):
        if i < len(ups):
            pad = [0] * ups[i]
            cs = list(map(sub, cs + pad, pad + cs))
        for r in range(b):
            cs[r::b] = accumulate(cs[r::b])
        if any(cs[-b:]):
            raise NotDivisible(f"(1 - q^{b}) does not divide the partial product")
        del cs[-b:]
    return QPoly(cs)


# The common denominator of MbarGr, T4 and the sheaf moduli, (1-q)^3 (1-q^2)^2.
_DEN = (1, 1, 1, 2, 2)


def proj_space_poincare(n: int) -> QPoly:
    """P(P^n) = (1 - q^(n+1)) / (1 - q) = 1 + q + ... + q^n."""
    ProjSpace(n)  # checks the domain
    return _ratio(_numerator((1, n + 1)), (1,))


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
    return _ratio({0: 1}, range(1, k + 1), range(big_n - k + 1, big_n + 1))


def kontsevich_proj_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to P^(n-1):
    (1-q^(n+1))(1-q^n)(1-q^(n-1)) / ((1-q)^2 (1-q^2)).
    """
    KontsevichProj(n)  # checks the domain
    return _ratio(_numerator((1, n + 1, n, n - 1)), (1, 1, 2))


def mbar_gr_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to the Grassmannian of codimension-2 subspaces of
    an (n+1)-dimensional space:

    [(1+q^(n+1))(1+q^3) - q(1+q)(q^2+q^(n-1))] (1-q^(n+1))(1-q^n)(1-q^(n-1))
    over (1-q)^3 (1-q^2)^2.  The bracket is (1-q^4)(1-q^n).  Degree 4n - 3,
    palindromic.
    """
    MbarGr(n)  # checks the domain
    return _ratio(_numerator((1, 4, n, n + 1, n, n - 1)), _DEN)


def sym2_poincare(p: QPoly) -> QPoly:
    """P of the symmetric square: (p(q)^2 + p(q^2)) / 2, integrality enforced."""
    doubled = p * p + p.subst_q_power(2)
    if any(c % 2 for c in doubled.coeffs):
        raise NonIntegral("symmetric square half is not integer-valued")
    return QPoly([c // 2 for c in doubled.coeffs])


def _t4_products(n: int) -> tuple[tuple[int, ...], ...]:
    """The signed products of P(T4(n)) (1-q)^3 (1-q^2)^2; see t4_poincare."""
    return (
        (1, 4, n, n + 1, n, n - 1),  # P(MbarGr(n))
        (-1, n + 1, n + 1, n, n - 1, 2),  # - [n+1] P(MbarP(n))
        (1, n + 1, 1, 1, 2, 2),  # + [n+1]
        # - ([n-1]^2 - 1) pairs, both differences multiplied out
        (-1, n - 1, n - 1, n + 2, n + 1, 2),
        (1, n - 1, n - 1, n + 1, 2, 2),
        (1, 1, 1, n + 2, n + 1, 2),
        (-1, 1, 1, n + 1, 2, 2),
    )


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

    at most 7 * 32 terms at any n, divided by the five factors in turn.  Each
    partial division is exact: the denominator divides the numerator N, so
    does every sub-product of it, and N over a sub-product is a polynomial.
    """
    T4(n)  # checks the domain
    return _ratio(_numerator(*_t4_products(n)), _DEN)


# Reference value of the degree-17 polynomial for the sheaf moduli space
# below; the computation must reproduce it exactly.
_MP2_4M2_COEFFS = (1, 2, 5, 9, 12, 12, 12, 10, 10, 9, 10, 10, 11, 11, 9, 5, 2, 1)


def mp2_4m2_poincare() -> QPoly:
    """Moduli of one-dimensional semistable sheaves on P^2 with Hilbert polynomial 4m+2.

    Assembled from two wall-crossing excisions and the n = 5 double cover:
    (P(P^14) - P(P^2)) + P(P^2 x P^2)(P(P^12) - 1) + P(T4(5)), as one sparse
    numerator over T4's denominator (1-q)^3 (1-q^2)^2.
    """
    value = _ratio(
        _numerator(
            (1, 15, 1, 1, 2, 2),  # P(P^14) - P(P^2) = ((1-q^15) - (1-q^3)) / (1-q)
            (-1, 3, 1, 1, 2, 2),
            (1, 3, 3, 13, 2, 2),  # P(P^2)^2 (P(P^12) - 1) = [3]^2 ((1-q^13) - (1-q)) / (1-q)
            (-1, 3, 3, 1, 2, 2),
            *_t4_products(5),
        ),
        _DEN,
    )
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


@dataclass(frozen=True)
class ProjSpace:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("projective space dimension must be >= 0")

    @property
    def dimension(self) -> int:
        return self.n


@dataclass(frozen=True)
class Grassmannian:
    k: int
    big_n: int

    def __post_init__(self):
        if not 0 <= self.k <= self.big_n:
            raise ValueError("need 0 <= k <= N")

    @property
    def dimension(self) -> int:
        return self.k * (self.big_n - self.k)


@dataclass(frozen=True)
class KontsevichProj:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")

    @property
    def dimension(self) -> int:
        return 3 * self.n - 4


@dataclass(frozen=True)
class MbarGr:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")

    @property
    def dimension(self) -> int:
        return 4 * self.n - 3


@dataclass(frozen=True)
class Sym2Of:
    inner: "SpaceId"

    @property
    def dimension(self) -> int:
        return 2 * self.inner.dimension


@dataclass(frozen=True)
class T4:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("the double symmetroid needs n >= 3")

    @property
    def dimension(self) -> int:
        return 4 * self.n - 3


@dataclass(frozen=True)
class MP24m2:
    dimension = 17


SpaceId = Union[ProjSpace, Grassmannian, KontsevichProj, MbarGr, Sym2Of, T4, MP24m2]


def poincare(space: SpaceId) -> QPoly:
    """Virtual Poincare polynomial of a described space."""
    if isinstance(space, ProjSpace):
        return proj_space_poincare(space.n)
    if isinstance(space, Grassmannian):
        return grassmannian_poincare(space.k, space.big_n)
    if isinstance(space, KontsevichProj):
        return kontsevich_proj_poincare(space.n)
    if isinstance(space, MbarGr):
        return mbar_gr_poincare(space.n)
    if isinstance(space, Sym2Of):
        return sym2_poincare(poincare(space.inner))
    if isinstance(space, T4):
        return t4_poincare(space.n)
    if isinstance(space, MP24m2):
        return mp2_4m2_poincare()
    raise TypeError(f"unknown space identifier: {space!r}")
