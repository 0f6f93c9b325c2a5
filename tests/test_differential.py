"""Differential test of the integer kernel against the independent sympy route.

Inputs are degenerate small-entry modules: n in {2, 3, 4}, entries in
{-1, 0, 1} over denominators {1, 2, 3}, with columns, rows or the diagonal
often tied together so every stratum occurs.  Ranks are recomputed with
sympy.Matrix.rank and the minor gcd with sympy.gcd, from coefficients built
here, sharing no code with the package.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from moriconic import (
    ALL_ZERO,
    BinaryForm,
    KroneckerModule,
    LinearForm,
    Stratum,
    Verdict,
    WitnessKind,
    classify_stability,
    cokernel_kind,
    det_quadric,
    envelope,
    minor_gcd,
    pencil_matrix,
    plucker_conic,
    quadric_rank,
    stratify,
)

from conftest import sympy_stratum

VALUES = sorted({Fraction(p, q) for p in (-1, 0, 1) for q in (1, 2, 3)})
TIES = ("none", "columns", "rows", "diagonal", "scalar", "triangular")


@st.composite
def degenerate_modules(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    entries = st.lists(st.sampled_from(VALUES), min_size=n + 1, max_size=n + 1)
    a, b, c, d = (LinearForm(n, tuple(draw(entries))) for _ in range(4))
    lam = draw(st.sampled_from(VALUES))
    zero = LinearForm(n, [0] * (n + 1))
    tie = draw(st.sampled_from(TIES))
    if tie == "columns":
        b, d = lam * a, lam * c
    elif tie == "rows":
        c, d = lam * a, lam * b
    elif tie == "diagonal":
        b = c = zero
    elif tie == "scalar":
        b, c, d = zero, zero, a
    elif tie == "triangular":
        c, d = zero, lam * a
    assume(not all(f.is_zero for f in (a, b, c, d)))
    return KroneckerModule(n, a, b, c, d)


def rat(x: Fraction):
    return sp.Rational(x.numerator, x.denominator)


def sympy_rank(rows) -> int:
    return sp.Matrix([[rat(x) for x in row] for row in rows]).rank()


def det_gram(M: KroneckerModule):
    a, b, c, d = M.m11.coeffs, M.m12.coeffs, M.m21.coeffs, M.m22.coeffs
    size = M.n + 1
    return [
        [(a[i] * d[j] + a[j] * d[i] - b[i] * c[j] - b[j] * c[i]) / 2 for j in range(size)]
        for i in range(size)
    ]


def minor_slices(M: KroneckerModule):
    a1, b1 = M.m11.coeffs, M.m12.coeffs
    a2, b2 = M.m21.coeffs, M.m22.coeffs
    pairs = list(combinations(range(M.n + 1), 2))
    return [
        [a1[i] * a2[j] - a1[j] * a2[i] for i, j in pairs],
        [a1[i] * b2[j] + b1[i] * a2[j] - a1[j] * b2[i] - b1[j] * a2[i] for i, j in pairs],
        [b1[i] * b2[j] - b1[j] * b2[i] for i, j in pairs],
    ]


S, T = sp.symbols("s t")


def sympy_minor_gcd(slices):
    """Gcd of the minors s^2 p + st q + t^2 r in coprime integers with positive
    leading entry, or ALL_ZERO when every minor vanishes."""
    minors = [rat(p) * S**2 + rat(q) * S * T + rat(r) * T**2 for p, q, r in zip(*slices)]
    nonzero = [m for m in minors if m != 0]
    if not nonzero:
        return ALL_ZERO
    g = sp.Poly(reduce(sp.gcd, nonzero), S, T)
    g = g.clear_denoms(convert=True)[1].primitive()[1]
    d = g.total_degree()
    coeffs = [int(g.coeff_monomial(S ** (d - i) * T**i)) for i in range(d + 1)]
    sign = 1 if next(c for c in coeffs if c) > 0 else -1
    return BinaryForm(d, [sign * c for c in coeffs])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(degenerate_modules())
def test_kernel_matches_sympy(M):
    stratum = stratify(M)
    assert stratum is sympy_stratum(M)
    slices = minor_slices(M)
    assert minor_gcd(M) == sympy_minor_gcd(slices)

    det_rank = sympy_rank(det_gram(M))
    assert quadric_rank(det_quadric(M)) == det_rank
    if stratum is not Stratum.UNSTABLE_LOCUS:
        assert cokernel_kind(M).det_rank == det_rank

    if any(any(row) for row in slices):
        assert envelope(plucker_conic(M)).dim == sympy_rank(slices)

    cls = classify_stability(M)
    assert (cls.verdict is Verdict.UNSTABLE) == (stratum is Stratum.UNSTABLE_LOCUS)
    if cls.witness is not None and cls.witness.kind is WitnessKind.RANK_DROP:
        s, t = cls.witness.vector
        assert sympy_rank(pencil_matrix(M, s, t).entries) <= 1
