"""Virtual Poincare polynomials of the moduli spaces in play, exactly.

Everything is computed symbolically in the variable q (the class of the
affine line, so deg P(X) = dim X).  Each closed formula is one ratio of
(1 - q^k) factors, evaluated by _ratio one two-term factor at a time on a
list of coefficients: multiply by a numerator factor (a shift and a
subtraction), then divide exactly by a denominator factor (running sums).
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


def _ratio(ups, downs, poly: QPoly | None = None) -> QPoly:
    """poly (1 if None) times the product of the (1 - q^a) over that of the (1 - q^b).

    Each numerator factor is followed by the denominator factor paired with
    it, on one coefficient list at O(degree) per step: times 1 - q^a is the
    list minus itself shifted up by a, and over 1 - q^b is its running sums
    with stride b (the quotient's power series), exact iff the top b sums are
    zero.  Those are dropped; a nonzero one raises NotDivisible, never a
    truncated result.  The pairs are ordered so that every partial result is
    a polynomial.
    """
    cs = [1] if poly is None else list(poly.coeffs)
    for a, b in zip(ups, downs, strict=True):
        pad = [0] * a
        cs = list(map(sub, cs + pad, pad + cs))
        for r in range(b):
            cs[r::b] = accumulate(cs[r::b])
        if any(cs[-b:]):
            raise NotDivisible(f"(1 - q^{b}) does not divide the partial product")
        del cs[-b:]
    return QPoly(cs)


def proj_space_poincare(n: int) -> QPoly:
    """P(P^n) = (1 - q^(n+1)) / (1 - q) = 1 + q + ... + q^n."""
    ProjSpace(n)  # checks the domain
    return _ratio((n + 1,), (1,))


def grassmannian_poincare(k: int, big_n: int) -> QPoly:
    """Gaussian binomial (big_n choose k)_q, the Poincare polynomial of Gr(k, N).

    The product over i <= k of (1 - q^(N-k+i)) / (1 - q^i), with k replaced
    by min(k, N - k) since Gr(k, N) = Gr(N - k, N).  After step i the value
    is the Gaussian binomial (N-k+i choose i)_q, so each division is exact,
    and no intermediate exceeds the answer's degree k(N-k) by more than k.
    """
    Grassmannian(k, big_n)  # checks the domain
    k = min(k, big_n - k)
    return _ratio(range(big_n - k + 1, big_n + 1), range(1, k + 1))


def kontsevich_proj_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to P^(n-1):
    (1-q^(n+1))(1-q^n)(1-q^(n-1)) / ((1-q)^2 (1-q^2)).
    """
    KontsevichProj(n)  # checks the domain
    return _ratio((n + 1, n, n - 1), (1, 1, 2))


def mbar_gr_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to the Grassmannian of codimension-2 subspaces of
    an (n+1)-dimensional space:

    [(1+q^(n+1))(1+q^3) - q(1+q)(q^2+q^(n-1))] (1-q^(n+1))(1-q^n)(1-q^(n-1))
    over (1-q)^3 (1-q^2)^2.  The bracket is (1-q^4)(1-q^n).  Degree 4n - 3,
    palindromic.
    """
    MbarGr(n)  # checks the domain
    return _ratio((4, n, n + 1, n, n - 1), (1, 1, 1, 2, 2))


def sym2_poincare(p: QPoly) -> QPoly:
    """P of the symmetric square: (p(q)^2 + p(q^2)) / 2, integrality enforced."""
    doubled = p * p + p.subst_q_power(2)
    if any(c % 2 for c in doubled.coeffs):
        raise NonIntegral("symmetric square half is not integer-valued")
    return QPoly([c // 2 for c in doubled.coeffs])


def t4_poincare(n: int) -> QPoly:
    """The double cover of the rank <= 4 quadric locus in P(Sym^2 V*), dim V = n+1.

    Computed by excising the two exceptional fiber types of the contraction
    from the stable-map space: over the double-hyperplane locus (a P^n) the
    fiber is the space of degree-2 stable maps to P^(n-1); over distinct
    hyperplane pairs (Sym^2 P^n, whose Poincare polynomial is the Gaussian
    binomial (n+2 choose 2)_q, minus the diagonal) it is (P^(n-2))^2.  Each
    product with a q-integer [m] = (1 - q^m) / (1 - q) is a ratio step.
    """
    T4(n)  # checks the domain
    ppn = proj_space_poincare(n)
    pairs = grassmannian_poincare(2, n + 2) - ppn  # unordered pairs of distinct hyperplanes
    # (P(MbarP(n)) - 1) P(P^n) and (P(P^(n-2))^2 - 1) pairs
    over_doubles = _ratio((n + 1,), (1,), kontsevich_proj_poincare(n)) - ppn
    over_pairs = _ratio((n - 1, n - 1), (1, 1), pairs) - pairs
    return mbar_gr_poincare(n) - over_doubles - over_pairs


# Reference value of the degree-17 polynomial for the sheaf moduli space
# below; the computation must reproduce it exactly.
_MP2_4M2_COEFFS = (1, 2, 5, 9, 12, 12, 12, 10, 10, 9, 10, 10, 11, 11, 9, 5, 2, 1)


def mp2_4m2_poincare() -> QPoly:
    """Moduli of one-dimensional semistable sheaves on P^2 with Hilbert polynomial 4m+2.

    Assembled from two wall-crossing excisions and the n = 5 double cover:
    (P(P^14) - P(P^2)) + P(P^2 x P^2)(P(P^12) - 1) + P(T4(5)).
    """
    value = (
        (proj_space_poincare(14) - proj_space_poincare(2))
        + _ratio((3, 3), (1, 1), proj_space_poincare(12) - 1)  # P(P^2)^2 (P(P^12) - 1)
        + t4_poincare(5)
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
class ProductOf:
    left: "SpaceId"
    right: "SpaceId"

    @property
    def dimension(self) -> int:
        return self.left.dimension + self.right.dimension


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


SpaceId = Union[ProjSpace, Grassmannian, KontsevichProj, MbarGr, Sym2Of, ProductOf, T4, MP24m2]


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
    if isinstance(space, ProductOf):
        return poincare(space.left) * poincare(space.right)
    if isinstance(space, T4):
        return t4_poincare(space.n)
    if isinstance(space, MP24m2):
        return mp2_4m2_poincare()
    raise TypeError(f"unknown space identifier: {space!r}")
