"""Shared builders: random SL2(Q) changes of basis, normal-form modules, the
independent sympy route for cross-checking minor-gcd classifications, the
root structure of a binary form on Fractions, reference polynomial and
binary-form arithmetic on coefficient tuples, the documents json_text writes
read back, the cross-section coordinates of the chamber lookup with the
orientation loop and the verdict writer it had before its sign and text
tables, the Bareiss elimination that the pivot-column scan is checked
against, the stability and stratify documents as the CLI wrote them from the
records, and the argparse parser the CLI read its flags with before its flag
table."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest

from moriconic import (
    ChamberVerdict,
    KroneckerModule,
    LinearForm,
    NotDivisible,
    RatMatrix,
    RootKind,
    RootStructure,
    StabilityClass,
    Stratum,
    Witness,
    ZeroDivisor,
    stratify,
)
from moriconic import cli
from moriconic.chamber import _CELLS, _GRID, GENERATORS, Cell, NMode


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


def scaled(c, f: LinearForm) -> LinearForm:
    """c * f, coefficient by coefficient on Fractions."""
    return LinearForm(f.n, [Fraction(c) * x for x in f.coeffs])


def scaled_module(M: KroneckerModule, c) -> KroneckerModule:
    """c * M, entry by entry on Fractions."""
    return KroneckerModule(M.n, *(scaled(c, f) for row in M.entries() for f in row))


# Normal-form builders, one per orbit-type class.


def scalar_module(rng, n) -> KroneckerModule:
    g = random_nonzero_form(rng, n)
    z = LinearForm(n, [0] * (n + 1))
    return KroneckerModule(n, g, z, z, g)


def proportional_triangular_module(rng, n) -> KroneckerModule:
    """Triangular with proportional diagonal and an off-diagonal entry outside <g>."""
    g, k = independent_forms(rng, n, 2)
    c = Fraction(rng.choice([x for x in range(-3, 4) if x != 0]))
    return KroneckerModule(n, g, k, LinearForm(n, [0] * (n + 1)), scaled(c, g))


def nonscalar_diagonal_module(rng, n) -> KroneckerModule:
    g, h = independent_forms(rng, n, 2)
    z = LinearForm(n, [0] * (n + 1))
    return KroneckerModule(n, g, z, z, h)


def irrational_diagonalizable_module(rng, n) -> KroneckerModule:
    """g*Id + h*S with S^2 = D*Id for non-square D: diagonalizable only over Q(sqrt D)."""
    g, h = independent_forms(rng, n, 2)
    d = rng.choice([2, 3, 5, -1, -2, 7])
    return KroneckerModule(n, g, scaled(d, h), h, g)


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


# The root structure on Fraction coefficients, sharing no code with the package.


def ref_root_structure(coeffs) -> RootStructure:
    """The root structure computed on the Fraction coefficients."""

    def point(s, t):
        return (s / t, Fraction(1)) if t != 0 else (Fraction(1), Fraction(0))

    if len(coeffs) == 1:
        return RootStructure(RootKind.NO_ROOT, (), True, None)
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return RootStructure(RootKind.SIMPLE_ROOT, (point(-c1, c0),), True, None)
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c0 * c2
    if c0 == 0:
        if c1 == 0:
            return RootStructure(RootKind.DOUBLE_ROOT, (point(1, 0),), True, disc)
        return RootStructure(RootKind.TWO_DISTINCT_ROOTS, (point(1, 0), point(-c2, c1)), True, disc)
    if disc == 0:
        return RootStructure(RootKind.DOUBLE_ROOT, (point(-c1, 2 * c0),), True, disc)
    p, q = disc.numerator, disc.denominator
    if p > 0 and isqrt(p) ** 2 == p and isqrt(q) ** 2 == q:
        w = Fraction(isqrt(p), isqrt(q))
        roots = (point(-c1 + w, 2 * c0), point(-c1 - w, 2 * c0))
        return RootStructure(RootKind.TWO_DISTINCT_ROOTS, roots, True, disc)
    return RootStructure(RootKind.TWO_DISTINCT_ROOTS, (), False, disc)


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


def monomial(k: int, c: int = 1) -> tuple[int, ...]:
    """c * q^k."""
    assert k >= 0
    return (0,) * k + (c,)


def negated(cs) -> tuple[int, ...]:
    return tuple(-c for c in cs)


def evaluate(cs, x):
    """Horner evaluation at an exact scalar (int or Fraction); at 1, the sum
    of the coefficients (the Euler characteristic of a Poincare polynomial)."""
    acc = 0 * x
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def is_palindromic(cs) -> bool:
    cs = canonical(cs)
    return cs == cs[::-1]


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


# Binary forms as coefficient tuples, coefficient i multiplying s^(d-i) t^i:
# a product is schoolbook_product of the tuples.


def form_value(cs, s, t) -> Fraction:
    """The binary form with coefficients cs at the point (s, t)."""
    d = len(cs) - 1
    return sum(Fraction(c) * Fraction(s) ** (d - i) * Fraction(t) ** i for i, c in enumerate(cs))


def integer_coords(c) -> dict:
    """{(i, j): the integer triple of den * p_ij} of a conic, by pair."""
    return dict(zip(combinations(range(c.n + 1), 2), c.triples()))


def plucker_relation(p, i, j, k, l) -> list:
    """The coefficients of p_ij p_kl - p_ik p_jl + p_il p_jk, for the triples p
    of integer_coords.  The relation is homogeneous of degree 2, so it
    vanishes on den * p exactly when it vanishes on the conic."""
    x, y, z = (schoolbook_product(p[a], p[b])
               for a, b in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))))
    return [u - v + w for u, v, w in zip(x, y, z)]


def written(obj):
    """The JSON value obj.json_text() writes, read back: a QPoly's array of
    coefficient strings, or a conic's or envelope's document."""
    return json.loads(obj.json_text())


# The chamber cross-section's coordinates as Fractions: chamber._GRID over 18.
COORDS = {g: (Fraction(x, 18), Fraction(y, 18)) for g, (x, y) in _GRID.items()}


# The chamber lookup before its sign and text tables, kept as the reference
# the tables are tested against.


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _counterclockwise(a, b, c) -> tuple[str, str, str]:
    return (a, b, c) if _orient(_GRID[a], _GRID[b], _GRID[c]) > 0 else (a, c, b)


# The 9 triangles, corners in counterclockwise order.
_TRIANGLES = tuple(_counterclockwise(*gens) for gens in _CELLS[NMode.GT3] if len(gens) == 3)


def reference_resolve(d) -> ChamberVerdict:
    """resolve by orientation tests: p, the nums-weighted sum of the _GRID
    points, against the grid scaled by w, the sum of nums.  The first closed
    triangle whose three barycentric signs are all >= 0 contains the point,
    and the corners with a positive sign span the cell."""
    w = sum(d.nums)
    if w == 0:
        raise ZeroDivisor("all divisor coefficients vanish")
    p = tuple(sum(k * _GRID[g][i] for g, k in zip(GENERATORS, d.nums)) for i in (0, 1))
    grid = {g: (w * x, w * y) for g, (x, y) in _GRID.items()}
    for a, b, c in _TRIANGLES:
        ga, gb, gc = grid[a], grid[b], grid[c]
        signs = (_orient(gb, gc, p), _orient(gc, ga, p), _orient(ga, gb, p))
        if min(signs) >= 0:
            break
    else:
        raise AssertionError("cross-section point escaped the cell partition")
    gens = tuple(sorted((g for g, s in zip((a, b, c), signs) if s), key=GENERATORS.index))
    case, model, desc = _CELLS[d.n_mode][gens]
    return ChamberVerdict(case, model, desc, Cell(len(gens) - 1, gens))


def reference_to_json(verdict: ChamberVerdict) -> dict:
    """The response members of a chamber verdict, as ChamberVerdict.to_json wrote them."""
    return {
        "case": verdict.case_id,
        "model": verdict.model,
        "description": verdict.description,
        "cell": {"dim": verdict.cell.dim, "generators": list(verdict.cell.generators)},
    }


# The stability document as the CLI wrote it from the records, before its
# per-stratum texts, kept as the reference those texts are tested against.


def reference_witness_json(w: Witness) -> dict:
    """The JSON members of a witness, as Witness.to_json wrote them."""
    doc: dict = {"kind": w.kind.value}
    doc["vector"] = [str(c) for c in w.vector] if w.vector else None
    doc["form"] = w.form.to_json() if w.form is not None else None
    return doc


def cli_stdout(*argv) -> tuple[int, str]:
    """The exit code and stdout of one in-process CLI request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def reference_stability_stdout(cls: StabilityClass) -> str:
    """The stdout of a stability request whose module classify_stability classed as cls."""
    return cli._encode({
        "schema_version": 1,
        "verdict": cls.verdict.value,
        "witness": reference_witness_json(cls.witness) if cls.witness else None,
        "closed_orbit": cls.closed_orbit,
        "stabilizer": cls.stabilizer_kind.value if cls.stabilizer_kind else None,
    }) + "\n"


def reference_stratify_stdout(M: KroneckerModule) -> str:
    """The stdout of a stratify request on M, built from stratify."""
    return cli._encode({"schema_version": 1, "stratum": stratify(M).value}) + "\n"


# Reference wedge coordinates, envelope and stdout, on Fractions, sharing no
# code with the package.


def ref_minors(a1, b1, a2, b2):
    """The (s^2, st, t^2) coefficients of the 2x2 minors of the pencil rows, over pairs i < j."""
    return [
        (a1[i] * a2[j] - a1[j] * a2[i],
         a1[i] * b2[j] + b1[i] * a2[j] - a1[j] * b2[i] - b1[j] * a2[i],
         b1[i] * b2[j] - b1[j] * b2[i])
        for i, j in combinations(range(len(a1)), 2)
    ]


def ref_rref(rows):
    """The nonzero rows of the reduced row echelon form, by Gauss-Jordan on Fractions."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968),
    the elimination the library ran before its pivot-column scan: the reference
    that scan and RatMatrix.rank are compared against.

    Returns the nonzero rows of the reduced echelon form scaled by a common
    integer d, the pivot columns, and d: row i over d is row i of the reduced
    row echelon form.  Each update (p * x - f * y) / prev divides exactly by
    Sylvester's identity, so entries stay minors of the input.
    """
    m = [list(r) for r in rows]
    pivots = []
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


def ref_stdout(doc: dict) -> str:
    """The exact stdout of a successful request answering doc."""
    return json.dumps({"schema_version": 1, **doc}, sort_keys=True, separators=(",", ":")) + "\n"


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
