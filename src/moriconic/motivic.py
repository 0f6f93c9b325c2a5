"""Virtual Poincare polynomials of the moduli spaces in play, exactly.

Everything is computed symbolically in the variable q (the class of the
affine line, so deg P(X) = dim X): numerators are expanded as products and
denominators removed by exact polynomial division.  A nonzero remainder
raises NotDivisible: the formulas are all claimed to have polynomial values,
so a remainder means a transcription or implementation bug, never data.

The symmetric square rule P(Sym^2 X) = (P(X)(q)^2 + P(X)(q^2)) / 2 is the one
place a half-integer appears; integrality of the result is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import NonIntegral
from .qpoly import QPoly, one_minus_q_pow


def proj_space_poincare(n: int) -> QPoly:
    """P(P^n) = (1 - q^(n+1)) / (1 - q) = 1 + q + ... + q^n."""
    if n < 0:
        raise ValueError("projective space dimension must be >= 0")
    return one_minus_q_pow(n + 1).exact_div(one_minus_q_pow(1))


def grassmannian_poincare(k: int, big_n: int) -> QPoly:
    """Gaussian binomial (big_n choose k)_q, the Poincare polynomial of Gr(k, N).

    The product over i <= k of (1 - q^(N-k+i)) / (1 - q^i), with k replaced
    by min(k, N - k) since Gr(k, N) = Gr(N - k, N).  After step i the value
    is the Gaussian binomial (N-k+i choose i)_q, so each division is exact
    and by a two-term factor, and no intermediate exceeds the answer's
    degree k(N-k) by more than k.
    """
    if not 0 <= k <= big_n:
        raise ValueError("need 0 <= k <= N")
    k = min(k, big_n - k)
    poly = QPoly.one()
    for i in range(1, k + 1):
        # the sparse factor on the left, whose zero coefficients __mul__ skips
        poly = (one_minus_q_pow(big_n - k + i) * poly).exact_div(one_minus_q_pow(i))
    return poly


def kontsevich_proj_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to P^(n-1):
    (1-q^(n+1))(1-q^n)(1-q^(n-1)) / ((1-q)^2 (1-q^2)).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    num = one_minus_q_pow(n + 1) * one_minus_q_pow(n) * one_minus_q_pow(n - 1)
    den = one_minus_q_pow(1) ** 2 * one_minus_q_pow(2)
    return num.exact_div(den)


def mbar_gr_poincare(n: int) -> QPoly:
    """Degree-2 stable maps to the Grassmannian of codimension-2 subspaces of
    an (n+1)-dimensional space:

    [(1+q^(n+1))(1+q^3) - q(1+q)(q^2+q^(n-1))] (1-q^(n+1))(1-q^n)(1-q^(n-1))
    over (1-q)^3 (1-q^2)^2.  Degree 4n - 3, palindromic.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    bracket = (QPoly.one() + QPoly.monomial(n + 1)) * (QPoly.one() + QPoly.monomial(3)) - (
        QPoly.q() * (QPoly.one() + QPoly.q()) * (QPoly.monomial(2) + QPoly.monomial(n - 1))
    )
    num = bracket * one_minus_q_pow(n + 1) * one_minus_q_pow(n) * one_minus_q_pow(n - 1)
    den = one_minus_q_pow(1) ** 3 * one_minus_q_pow(2) ** 2
    return num.exact_div(den)


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
    hyperplane pairs (Sym^2 P^n minus the diagonal) it is (P^(n-2))^2.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    total = mbar_gr_poincare(n)
    fiber1 = kontsevich_proj_poincare(n)
    ppn = proj_space_poincare(n)
    pairs = sym2_poincare(ppn) - ppn  # unordered pairs of distinct hyperplanes
    small = proj_space_poincare(n - 2)
    return total - (fiber1 - 1) * ppn - (small * small - 1) * pairs


# Reference value of the degree-17 polynomial for the sheaf moduli space
# below; the computation must reproduce it exactly.
_MP2_4M2_COEFFS = (1, 2, 5, 9, 12, 12, 12, 10, 10, 9, 10, 10, 11, 11, 9, 5, 2, 1)


def mp2_4m2_poincare() -> QPoly:
    """Moduli of one-dimensional semistable sheaves on P^2 with Hilbert polynomial 4m+2.

    Assembled from two wall-crossing excisions and the n = 5 double cover:
    (P(P^14) - P(P^2)) + P(P^2 x P^2)(P(P^12) - 1) + P(T4(5)).
    """
    p2 = proj_space_poincare(2)
    value = (
        (proj_space_poincare(14) - p2)
        + p2 * p2 * (proj_space_poincare(12) - 1)
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
# Each identifier knows its dimension, the degree of its Poincare polynomial,
# so a caller can bound a request's cost before any product is formed.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjSpace:
    n: int

    @property
    def dimension(self) -> int:
        return self.n


@dataclass(frozen=True)
class Grassmannian:
    k: int
    big_n: int

    @property
    def dimension(self) -> int:
        return self.k * (self.big_n - self.k)


@dataclass(frozen=True)
class KontsevichProj:
    n: int

    @property
    def dimension(self) -> int:
        return 3 * self.n - 4


@dataclass(frozen=True)
class MbarGr:
    n: int

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
