"""Shared builders: random SL2(Q) changes of basis, normal-form modules, the
independent sympy route for cross-checking minor-gcd classifications,
reference polynomial arithmetic on coefficient tuples, and the argparse
parser the CLI read its flags with before its flag table."""

from __future__ import annotations

import argparse
import random
from fractions import Fraction

import pytest

from moriconic import KroneckerModule, LinearForm, NotDivisible, RatMatrix, Stratum


def random_sl2(rng: random.Random, size: int = 5):
    """Random element of SL2(Q): elementary shears, sometimes a diagonal torus factor.

    The shears [[1, a], [0, 1]] [[1, 0], [b, 1]] [[1, c], [0, 1]] multiply out
    to the integer matrix below; the torus factor diag(r, 1/r) scales its
    columns.  Entries are ints unless the torus factor makes them Fractions.
    """
    a, b, c = (rng.randint(-size, size) for _ in range(3))
    m = ((1 + a * b, (1 + a * b) * c + a), (b, b * c + 1))
    if rng.random() < 0.5:
        p, q = rng.randint(1, size), rng.randint(1, size)
        m = tuple((Fraction(x * p, q), Fraction(y * q, p)) for x, y in m)
    return m


def random_form(rng: random.Random, n: int, lo: int = -4, hi: int = 4) -> LinearForm:
    return LinearForm(n, tuple(rng.randint(lo, hi) for _ in range(n + 1)))


def random_nonzero_form(rng: random.Random, n: int) -> LinearForm:
    while True:
        f = random_form(rng, n)
        if not f.is_zero:
            return f


def _coeff_rank(forms: list[LinearForm]) -> int:
    return RatMatrix([f.coeffs for f in forms]).rank()


def independent_forms(rng: random.Random, n: int, count: int) -> list[LinearForm]:
    """count linearly independent forms (count <= n + 1)."""
    assert count <= n + 1
    while True:
        forms = [random_nonzero_form(rng, n) for _ in range(count)]
        if _coeff_rank(forms) == count:
            return forms


def lin_comb(n: int, coeffs: dict[int, object]) -> LinearForm:
    return LinearForm(n, tuple(Fraction(coeffs.get(i, 0)) for i in range(n + 1)))


# Normal-form builders, one per orbit-type class.


def scalar_module(rng, n) -> KroneckerModule:
    g = random_nonzero_form(rng, n)
    z = LinearForm(n, [0] * (n + 1))
    return KroneckerModule(n, g, z, z, g)


def proportional_triangular_module(rng, n) -> KroneckerModule:
    """Triangular with proportional diagonal and an off-diagonal entry outside <g>."""
    g, k = independent_forms(rng, n, 2)
    c = Fraction(rng.choice([x for x in range(-3, 4) if x != 0]))
    return KroneckerModule(n, g, k, LinearForm(n, [0] * (n + 1)), c * g)


def nonscalar_diagonal_module(rng, n) -> KroneckerModule:
    g, h = independent_forms(rng, n, 2)
    z = LinearForm(n, [0] * (n + 1))
    return KroneckerModule(n, g, z, z, h)


def irrational_diagonalizable_module(rng, n) -> KroneckerModule:
    """g*Id + h*S with S^2 = D*Id for non-square D: diagonalizable only over Q(sqrt D)."""
    g, h = independent_forms(rng, n, 2)
    d = rng.choice([2, 3, 5, -1, -2, 7])
    return KroneckerModule(n, g, Fraction(d) * h, h, g)


def generic_triangular_module(rng, n) -> KroneckerModule:
    """Triangular with off-diagonal entry outside the span of the diagonal."""
    g, h, k = independent_forms(rng, n, 3)
    return KroneckerModule(n, g, k, LinearForm(n, [0] * (n + 1)), h)


def zero_row_module(rng, n) -> KroneckerModule:
    g = random_nonzero_form(rng, n)
    h = random_form(rng, n)
    z = LinearForm(n, [0] * (n + 1))
    return KroneckerModule(n, g, h, z, z)


def random_module(rng, n) -> KroneckerModule:
    while True:
        forms = [random_form(rng, n) for _ in range(4)]
        if not all(f.is_zero for f in forms):
            return KroneckerModule(n, *forms)


def random_stable_module(rng, n) -> KroneckerModule:
    from moriconic import Verdict, classify_stability

    while True:
        m = random_module(rng, n)
        if classify_stability(m).verdict is Verdict.STABLE:
            return m


NORMAL_FORM_BUILDERS = {
    Stratum.Y0: scalar_module,
    Stratum.Z0: proportional_triangular_module,
    Stratum.Y1: nonscalar_diagonal_module,
    Stratum.Z1: generic_triangular_module,
    Stratum.UNSTABLE_LOCUS: zero_row_module,
    Stratum.STABLE_LOCUS: random_stable_module,
}


# Independent classification route via sympy, sharing no code with the package.


def sympy_stratum(M: KroneckerModule) -> Stratum:
    import sympy as sp

    def frac(x):
        return sp.Rational(x.numerator, x.denominator)

    # instability: a constant nullvector on either side of the 2x2 matrix
    col_stack = sp.Matrix(
        [[frac(a), frac(b)] for a, b in zip(M.m11.coeffs + M.m21.coeffs,
                                            M.m12.coeffs + M.m22.coeffs)]
    )
    row_stack = sp.Matrix(
        [[frac(a), frac(b)] for a, b in zip(M.m11.coeffs + M.m12.coeffs,
                                            M.m21.coeffs + M.m22.coeffs)]
    )
    if col_stack.nullspace() or row_stack.nullspace():
        return Stratum.UNSTABLE_LOCUS

    s, t = sp.symbols("s t")
    rows = []
    for left, right in ((M.m11, M.m12), (M.m21, M.m22)):
        rows.append(
            [s * frac(a) + t * frac(b) for a, b in zip(left.coeffs, right.coeffs)]
        )
    G = sp.Matrix(rows)
    n1 = G.shape[1]
    minors = [
        sp.expand(G[0, i] * G[1, j] - G[0, j] * G[1, i])
        for i in range(n1)
        for j in range(i + 1, n1)
    ]
    nonzero = [m for m in minors if m != 0]
    if not nonzero:
        return Stratum.Y0
    g = sp.Poly(nonzero[0], s, t)
    for m in nonzero[1:]:
        g = sp.gcd(g, sp.Poly(m, s, t))
    deg = sp.Poly(g, s, t).total_degree()
    if deg == 0:
        return Stratum.STABLE_LOCUS
    if deg == 1:
        return Stratum.Z1
    p = sp.Poly(g, s, t)
    c0 = p.coeff_monomial(s**2)
    c1 = p.coeff_monomial(s * t)
    c2 = p.coeff_monomial(t**2)
    disc = sp.expand(c1**2 - 4 * c0 * c2)
    return Stratum.Z0 if disc == 0 else Stratum.Y1


# Reference polynomial arithmetic on coefficient tuples (lowest degree first),
# sharing no code with the package.


def canonical(cs) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def schoolbook_product(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def one_minus_q_pow(k: int) -> tuple[int, ...]:
    """1 - q^k."""
    assert k >= 1
    return (1,) + (0,) * (k - 1) + (-1,)


def exact_div(num, den) -> tuple[int, ...]:
    """The quotient r with num = den * r, by long division from the top term;
    NotDivisible when a quotient coefficient is not an integer or a remainder
    is left."""
    num, den = list(canonical(num)), canonical(den)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ()
    if len(num) < len(den):
        raise NotDivisible("numerator degree below denominator degree")
    quot = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quot))):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            raise NotDivisible("quotient has non-integer coefficients")
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise NotDivisible("long division left a nonzero remainder")
    return tuple(quot)


# The argparse parser of the CLI before its flag table, kept as the reference
# its reader is tested against.  Refusals and help raise instead of exiting.


class ReferenceRefused(Exception):
    pass


class ReferenceHelp(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise ReferenceRefused(message)

    def print_help(self, file=None):
        pass

    def exit(self, status=0, message=None):
        raise ReferenceHelp


def _reference_parser() -> _ReferenceParser:
    parser = _ReferenceParser(prog="moriconic")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("poincare")
    p.add_argument("--space", required=True,
                   choices=["Pn", "Gr", "MbarP", "MbarGr", "T4", "MP2-4m+2", "Sym2"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--N", dest="big_n", type=int)
    p.add_argument("--inner")
    p.add_argument("--out")

    for name in ("stability", "stratify", "conic", "modify"):
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--in", dest="infile")
        src.add_argument("--json", dest="inline")
        p.add_argument("--out")

    p = sub.add_parser("chamber")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs")
    src.add_argument("--in", dest="infile")
    p.add_argument("--n-mode", choices=["gt3", "eq3"], default=None)
    p.add_argument("--reflect", action="store_true")
    p.add_argument("--out")
    return parser


REFERENCE_PARSER = _reference_parser()

# Each reference destination and the flag that sets it.
REFERENCE_FLAGS = {"space": "--space", "n": "--n", "k": "--k", "big_n": "--N", "inner": "--inner",
                   "infile": "--in", "inline": "--json", "coeffs": "--coeffs", "n_mode": "--n-mode",
                   "reflect": "--reflect", "out": "--out"}


def reference_argv(argv: list[str]) -> list[str]:
    """argv as the reference parser reads it, written back with one exact
    `--flag=value` (or bare switch) per destination it set.  Raises
    ReferenceRefused or ReferenceHelp where the reference does."""
    args = vars(REFERENCE_PARSER.parse_args(argv))
    canonical = [args.pop("subcommand")]
    for dest, value in args.items():
        if value is True:
            canonical.append(REFERENCE_FLAGS[dest])
        elif value is not None and value is not False:
            canonical.append(f"{REFERENCE_FLAGS[dest]}={value}")
    return canonical


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
