"""Seeded request builders with answers known from how each input was built.

Nothing here imports moriconic: every expected answer follows from the
construction of the input (a normal form moved by SL2 x SL2, four independent
coefficient vectors, a perturbation family with a known wedge table, a point
sampled inside a labelled cell, a closed formula with a known expansion), so
the checks stay independent of the code under test.

A request is an argv for ``moriconic.cli.main`` plus a ``check(rc, stdout)``
predicate.  The one request that is not a CLI call is ``cokernel_kind``,
served by the library function of that name, because no subcommand exposes
the determinant rank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Callable

LIB_COKERNEL = "cokernel_kind"


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]

    @property
    def is_cli(self) -> bool:
        return self.argv[0] != LIB_COKERNEL


def _response(rc: int, out: str):
    """The single JSON document of a successful response, or None."""
    if rc != 0 or not out.endswith("\n") or out.count("\n") != 1:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Kronecker modules: four coefficient vectors (m11, m12, m21, m22) of length n+1
# ---------------------------------------------------------------------------


def _form(rng, n, lo=-4, hi=4):
    return [Fraction(rng.randint(lo, hi)) for _ in range(n + 1)]


def _nonzero_form(rng, n):
    while True:
        f = _form(rng, n)
        if any(f):
            return f


def _rref(vectors):
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    rows = [list(v) for v in vectors]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def independent_forms(rng, n, count, lo=-4, hi=4):
    while True:
        forms = [_form(rng, n, lo, hi) for _ in range(count)]
        if len(_rref(forms)[1]) == count:
            return forms


def _lin(*terms):
    """Sum of c * form over (c, form) pairs."""
    out = [Fraction(0)] * len(terms[0][1])
    for c, f in terms:
        out = [x + c * y for x, y in zip(out, f)]
    return out


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def random_sl2(rng, size=5):
    """Random element of SL2(Q): three shears, half the time a torus factor."""
    m = [[Fraction(1), Fraction(rng.randint(-size, size))], [Fraction(0), Fraction(1)]]
    m = _mat_mul(m, [[Fraction(1), Fraction(0)], [Fraction(rng.randint(-size, size)), Fraction(1)]])
    m = _mat_mul(m, [[Fraction(1), Fraction(rng.randint(-size, size))], [Fraction(0), Fraction(1)]])
    if rng.random() < 0.5:
        r = Fraction(rng.randint(1, size), rng.randint(1, size))
        m = _mat_mul(m, [[r, Fraction(0)], [Fraction(0), 1 / r]])
    return m


def move(module, a, b):
    """A . M . B^-1 for A, B in SL2, so B^-1 is the adjugate of B."""
    m11, m12, m21, m22 = module
    (b11, b12), (b21, b22) = b
    c11, c12, c21, c22 = b22, -b12, -b21, b11
    (a11, a12), (a21, a22) = a
    t11, t12 = _lin((a11, m11), (a12, m21)), _lin((a11, m12), (a12, m22))
    t21, t22 = _lin((a21, m11), (a22, m21)), _lin((a21, m12), (a22, m22))
    return (
        _lin((c11, t11), (c21, t12)),
        _lin((c12, t11), (c22, t12)),
        _lin((c11, t21), (c21, t22)),
        _lin((c12, t21), (c22, t22)),
    )


def module_json(n, module) -> str:
    m11, m12, m21, m22 = ([str(c) for c in f] for f in module)
    return json.dumps({"n": n, "matrix": [[m11, m12], [m21, m22]]}, separators=(",", ":"))


# Normal forms, one per stratum.  Y1 comes in a rational-root and a
# conjugate-irrational-root variant: g*Id + h*S with S^2 = d*Id, d not a square.

def _y0(rng, n):
    g, z = _nonzero_form(rng, n), [Fraction(0)] * (n + 1)
    return (g, z, z, g)


def _z0(rng, n):
    g, k = independent_forms(rng, n, 2)
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return (g, k, [Fraction(0)] * (n + 1), [c * x for x in g])


def _y1_rational(rng, n):
    g, h = independent_forms(rng, n, 2)
    z = [Fraction(0)] * (n + 1)
    return (g, z, z, h)


def _y1_irrational(rng, n):
    g, h = independent_forms(rng, n, 2)
    d = Fraction(rng.choice([2, 3, 5, -1, -2, 7]))
    return (g, [d * x for x in h], h, g)


def _z1(rng, n):
    g, h, k = independent_forms(rng, n, 3)
    return (g, k, [Fraction(0)] * (n + 1), h)


def _unstable(rng, n):
    z = [Fraction(0)] * (n + 1)
    return (_nonzero_form(rng, n), _form(rng, n), z, z)


def _stable(rng, n):
    return tuple(independent_forms(rng, n, 4))


# (stratum, builder, verdict, closed_orbit, stabilizer, witness kinds)
STRATUM_BUILDERS = (
    ("Y0", _y0, "strictly_semistable", True, "SL2_Z2", ("rank_drop",)),
    ("Z0", _z0, "strictly_semistable", False, None, ("rank_drop",)),
    ("Y1", _y1_rational, "strictly_semistable", True, "Cstar_Z2", ("rank_drop",)),
    ("Y1", _y1_irrational, "strictly_semistable", True, "Cstar_Z2", ("gcd_certificate",)),
    ("Z1", _z1, "strictly_semistable", False, None, ("rank_drop",)),
    ("unstable_locus", _unstable, "unstable", None, None, ("zero_column", "zero_row")),
    ("stable_locus", _stable, "stable", True, "finite", ()),
)


def _is_rational_square(x: Fraction) -> bool:
    return x >= 0 and isqrt(x.numerator) ** 2 == x.numerator and isqrt(x.denominator) ** 2 == x.denominator


def _witness_ok(module, kinds, w) -> bool:
    m11, m12, m21, m22 = module
    if not kinds:
        return w is None
    if not isinstance(w, dict) or w.get("kind") not in kinds:
        return False
    if w["kind"] == "gcd_certificate":
        if w.get("vector") is not None or len(w.get("form") or ()) != 3:
            return False
        a, b, c = (Fraction(x) for x in w["form"])
        disc = b * b - 4 * a * c
        return disc != 0 and not _is_rational_square(disc)
    if w.get("form") is not None or len(w.get("vector") or ()) != 2:
        return False
    s, t = (Fraction(x) for x in w["vector"])
    if s == 0 and t == 0:
        return False
    if w["kind"] == "zero_column":
        return not any(_lin((s, m11), (t, m12))) and not any(_lin((s, m21), (t, m22)))
    if w["kind"] == "zero_row":
        return not any(_lin((s, m11), (t, m21))) and not any(_lin((s, m12), (t, m22)))
    r1, r2 = _lin((s, m11), (t, m12)), _lin((s, m21), (t, m22))  # rank_drop
    return all(r1[i] * r2[j] == r1[j] * r2[i] for i, j in combinations(range(len(r1)), 2))


def stability_pair(rng, n, entry) -> list[Request]:
    """A normal form moved by a random SL2 x SL2, sent as stability then stratify."""
    stratum, build, verdict, closed, stabilizer, kinds = entry
    module = move(build(rng, n), random_sl2(rng), random_sl2(rng))
    doc = module_json(n, module)

    def check_stability(rc, out):
        r = _response(rc, out)
        return (
            r is not None
            and r.get("schema_version") == 1
            and r.get("verdict") == verdict
            and r.get("closed_orbit") == closed
            and r.get("stabilizer") == stabilizer
            and _witness_ok(module, kinds, r.get("witness"))
        )

    def check_stratify(rc, out):
        return _response(rc, out) == {"schema_version": 1, "stratum": stratum}

    return [
        Request(("stability", "--json", doc), check_stability),
        Request(("stratify", "--json", doc), check_stratify),
    ]


# ---------------------------------------------------------------------------
# Conics: four independent coefficient vectors give a stable module with
# determinant rank 4, conic degree 2 and a 3-dimensional envelope, because a
# change of coordinates on V takes the module to [[x0, x1], [x2, x3]].
# ---------------------------------------------------------------------------


def _minors(module):
    """The wedge coordinates: the 2x2 minors of the pencil, one quadratic per pair."""
    a1, b1, a2, b2 = module
    return {
        (i, j): (
            a1[i] * a2[j] - a1[j] * a2[i],
            a1[i] * b2[j] + b1[i] * a2[j] - a1[j] * b2[i] - b1[j] * a2[i],
            b1[i] * b2[j] - b1[j] * b2[i],
        )
        for i, j in combinations(range(len(a1)), 2)
    }


def conic_requests(rng, n) -> list[Request]:
    """A conic request and a cokernel_kind call on one fresh stable module.

    The envelope basis is the reduced row echelon form of the three
    coefficient slices of the minors, which is unique, so it is compared
    entry by entry.
    """
    module = _stable(rng, n)
    doc = module_json(n, module)
    minors = _minors(module)
    coords = {f"{i},{j}": [str(c) for c in m] for (i, j), m in minors.items()}

    def check_conic(rc, out):
        r = _response(rc, out)
        if r is None or r.get("n") != n or r.get("degree") != 2 or r.get("coords") != coords:
            return False
        basis, pivots = _rref([[m[k] for m in minors.values()] for k in range(3)])
        want = [[str(x) for x in row] for row in basis]
        return len(pivots) == 3 and r.get("envelope") == {"dim": 3, "basis": want}

    def check_cokernel(rc, out):
        return _response(rc, out) == {"kind": "twisted_ideal_of_quadric", "det_rank": 4}

    return [
        Request(("conic", "--json", doc), check_conic),
        Request((LIB_COKERNEL, "--json", doc), check_cokernel),
    ]


def _random_rat(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def modify_request(rng, n) -> Request:
    """[[x0, L*sum a_i x_i], [L*sum b_i x_i, x0]]: k = 1 and p_0i = (b_i, 0, -a_i).

    Coefficients are drawn until two of the quadratics b_i s^2 - a_i t^2 are
    not proportional, so the modified conic is base-point free.
    """
    while True:
        a = [_random_rat(rng) for _ in range(n)]
        b = [_random_rat(rng) for _ in range(n)]
        pairs = [(bi, -ai) for ai, bi in zip(a, b) if ai or bi]
        if any(p[0] * q[1] != p[1] * q[0] for p, q in combinations(pairs, 2)):
            break
    zero = ["0"] * (n + 1)
    x0 = ["1"] + ["0"] * n
    sa = ["0"] + [str(c) for c in a]
    sb = ["0"] + [str(c) for c in b]
    doc = json.dumps({"n": n, "matrix": [[[x0], [zero, sa]], [[zero, sb], [x0]]]}, separators=(",", ":"))
    coords = {f"{i},{j}": ["0", "0", "0"] for i, j in combinations(range(n + 1), 2)}
    for i in range(1, n + 1):
        coords[f"0,{i}"] = [str(b[i - 1]), "0", str(-a[i - 1])]

    def check(rc, out):
        r = _response(rc, out)
        return (
            r is not None
            and r.get("k") == 1
            and r.get("conic") == {"n": n, "coords": coords}
            and r.get("residual_base") == {"gcd": ["1"], "gcd_degree": 0, "rational_points": []}
        )

    return Request(("modify", "--json", doc), check)


# ---------------------------------------------------------------------------
# Poincare polynomials
# ---------------------------------------------------------------------------

# Factored reference forms of P(T4(n)) and the 18 coefficients of the plane
# sheaf moduli polynomial; the same values the acceptance suite checks.
T4_FACTORS = {
    3: [(1, 1, 1, 0, 0, 0, 1, 1), (1, 0, 1)],
    4: [(1, -1, 1, 0, -1, 1, -1, 1), (1, 1, 1, 1, 1), (1, 1, 1)],
    5: [(1, 1, 1, 1, 1, 0, 0, -1, -1, 0, 1, 1, 1, 1), (1, 0, 1, 0, 1)],
    6: [(1, 0, 1, 0, 1, 0, 0, 0, -1, 0, -1, 1, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1, 1)],
}
MP2_COEFFS = (1, 2, 5, 9, 12, 12, 12, 10, 10, 9, 10, 10, 11, 11, 9, 5, 2, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b, sign=1):
    """a + sign * b, without trailing zeros."""
    out = [(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _monomial(k):
    return [0] * k + [1]


def _one_minus_q_pow(k):
    return [1] + [0] * (k - 1) + [-1]


def _div_one_minus_q_pow(p, k):
    """p / (1 - q^k); the quotient c satisfies c_i = p_i + c_(i-k)."""
    c = list(p)
    for i in range(k, len(c)):
        c[i] += c[i - k]
    if any(c[-k:]):
        raise ArithmeticError(f"not divisible by 1 - q^{k}")
    return c[:-k]


def gaussian_binomial(big_n, k):
    """(N choose k)_q by the q-Pascal rule, lowest degree first."""
    rows = {(m, 0): [1] for m in range(big_n + 1)}
    for m in range(1, big_n + 1):
        for j in range(1, min(k, m) + 1):
            left = rows[(m - 1, j - 1)]
            right = [0] * j + rows[(m - 1, j)] if j <= m - 1 else []
            size = max(len(left), len(right))
            rows[(m, j)] = [
                (left[i] if i < len(left) else 0) + (right[i] if i < len(right) else 0)
                for i in range(size)
            ]
    return rows[(big_n, k)]


@lru_cache(maxsize=None)
def mbar_gr_poly(n):
    """[(1+q^(n+1))(1+q^3) - q(1+q)(q^2+q^(n-1))] (n+1 choose 2)_q (1-q^(n-1))
    over (1-q)^2 (1-q^2), in integer arithmetic."""
    bracket = _poly_add(
        _poly_mul(_poly_add([1], _monomial(n + 1)), _poly_add([1], _monomial(3))),
        _poly_mul([0, 1, 1], _poly_add(_monomial(2), _monomial(n - 1))),
        sign=-1,
    )
    num = _poly_mul(_poly_mul(bracket, gaussian_binomial(n + 1, 2)), _one_minus_q_pow(n - 1))
    for k in (1, 1, 2):
        num = _div_one_minus_q_pow(num, k)
    return tuple(num)


@lru_cache(maxsize=None)
def t4_poly(n):
    """P(T4(n)) by its closed formula, in integer arithmetic:
    P(MbarGr(n)) - (K(n) - 1) P(P^n) - (P(P^(n-2))^2 - 1)((n+2 choose 2)_q - P(P^n)),
    where K(n) = (n+1 choose 2)_q P(P^(n-2)) counts degree-2 stable maps to P^(n-1)."""
    ppn, small = [1] * (n + 1), [1] * (n - 1)
    fiber1 = _poly_mul(gaussian_binomial(n + 1, 2), small)
    pairs = _poly_add(gaussian_binomial(n + 2, 2), ppn, sign=-1)
    out = _poly_add(list(mbar_gr_poly(n)), _poly_mul(_poly_add(fiber1, [1], sign=-1), ppn), sign=-1)
    out = _poly_add(out, _poly_mul(_poly_add(_poly_mul(small, small), [1], sign=-1), pairs), sign=-1)
    return tuple(out)


def _poly_check(predicate):
    def check(rc, out):
        r = _response(rc, out)
        if r is None or set(r) != {"poly", "schema_version"}:
            return False
        try:
            coeffs = [int(c) for c in r["poly"]]
        except (TypeError, ValueError):
            return False
        return bool(coeffs) and coeffs[-1] != 0 and predicate(coeffs)

    return check


def t4_reference(n):
    """The acceptance suite's value of P(T4(n)), n = 3..6, expanded."""
    want = [1]
    for f in T4_FACTORS[n]:
        want = _poly_mul(want, list(f))
    return want


def t4_request(n) -> Request:
    """n = 3..6: the acceptance suite's values; larger n: the closed formula,
    plus the degree law deg = 4n - 3."""
    argv = ("poincare", "--space", "T4", "--n", str(n))
    if n in T4_FACTORS:
        want = t4_reference(n)
        return Request(argv, _poly_check(lambda c: c == want))
    want = list(t4_poly(n))
    return Request(argv, _poly_check(lambda c: len(c) - 1 == 4 * n - 3 and c == want))


def mbar_gr_request(n) -> Request:
    """Smooth of dimension 4n - 3, so the polynomial is palindromic of that degree."""
    argv = ("poincare", "--space", "MbarGr", "--n", str(n))
    want = list(mbar_gr_poly(n))
    return Request(argv, _poly_check(lambda c: len(c) - 1 == 4 * n - 3 and c == c[::-1] and c == want))


def grassmannian_request(k, big_n) -> Request:
    want = gaussian_binomial(big_n, k)
    argv = ("poincare", "--space", "Gr", "--k", str(k), "--N", str(big_n))
    return Request(argv, _poly_check(lambda c: c == want))


def sym2_request(n) -> Request:
    """Sym^2 P^n has the Poincare polynomial (n+2 choose 2)_q."""
    want = gaussian_binomial(n + 2, 2)
    inner = json.dumps({"space": "Pn", "n": n})
    return Request(("poincare", "--space", "Sym2", "--inner", inner), _poly_check(lambda c: c == want))


def mp2_request() -> Request:
    return Request(("poincare", "--space", "MP2-4m+2"), _poly_check(lambda c: tuple(c) == MP2_COEFFS))


# ---------------------------------------------------------------------------
# Chamber lookup: (case, model, generators with positive coefficient,
# generators whose coefficient is zero 40% of the time).  Zero optional
# coefficients put the point on a wall or at a vertex of the item's cell.
# ---------------------------------------------------------------------------

GT3_ITEMS = (
    (1, "M", ("H11", "H2", "T"), ()),
    (2, "C", ("H11", "H2"), ()),
    (3, "H", ("H11", "H2", "P"), ()),
    (4, "U", ("T",), ("Delta",)),
    (5, "K", ("H2",), ("Ddeg", "Delta")),
    (6, "X1modG", ("H2", "T"), ("Delta",)),
    (7, "Gtilde", ("H2", "P"), ("Ddeg",)),
    (8, "G", ("Dunb", "P"), ("Ddeg",)),
    (9, "B", ("H11", "P", "Dunb"), ()),
    (10, "KS", ("H11", "Dunb"), ("Delta",)),
    (11, "R", ("H11", "T"), ("Delta",)),
    (12, "L", ("H11",), ("Delta",)),
    (13, "Gbar", ("P",), ("Ddeg",)),
    (14, "Ghat", ("H11", "P"), ()),
    (15, "Point", (), ("Delta", "Ddeg")),
    (16, "Gr4Vdual", ("Dunb",), ("Delta",)),
    (16, "Gr4Vdual", ("Dunb",), ("Ddeg",)),
)

EQ3_ITEMS = (
    (1, "M", ("H11", "H2", "T"), ()),
    (2, "H", ("H11", "H2", "P"), ()),
    (3, "K", ("H2",), ("Ddeg", "Delta")),
    (4, "X1modG", ("H2", "T"), ("Delta",)),
    (5, "BlG_sigma11", ("H2", "P"), ("Ddeg",)),
    (6, "Gr3w2V", ("P",), ("Dunb", "Ddeg")),
    (7, "BlG_sigma2", ("H11", "P"), ("Dunb",)),
    (8, "Kstar", ("H11",), ("Dunb", "Delta")),
    (9, "X1modG_star", ("H11", "T"), ("Delta",)),
    (10, "U", ("T",), ("Delta",)),
    (11, "C", ("H11", "H2"), ()),
    (12, "Point", (), ("Dunb", "Ddeg", "Delta")),  # the whole boundary of the cone
)

_SWAP = {"Dunb": "Ddeg", "Ddeg": "Dunb", "H11": "H2", "H2": "H11"}


def _sample_item(rng, positive, optional):
    coeffs = {g: Fraction(rng.randint(1, 12), rng.randint(1, 4)) for g in positive}
    for g in optional:
        coeffs[g] = Fraction(0) if rng.random() < 0.4 else Fraction(rng.randint(1, 12), rng.randint(1, 4))
    if not any(coeffs.values()):
        coeffs[rng.choice(optional)] = Fraction(rng.randint(1, 12))
    if not positive and len(optional) == 3 and all(coeffs.values()):
        # the eq3 boundary item: at most two of the three extremal rays
        coeffs[rng.choice(optional)] = Fraction(0)
    return coeffs


def chamber_request(rng, item, mode, reflect) -> Request:
    """A point sampled in the item's cell; with reflect, its mirror image is sent."""
    case, model, positive, optional = item
    coeffs = _sample_item(rng, positive, optional)
    if reflect:
        coeffs = {_SWAP.get(g, g): v for g, v in coeffs.items()}
    argv = ["chamber", "--coeffs", json.dumps({g: str(v) for g, v in coeffs.items()})]
    if mode != "gt3":
        argv += ["--n-mode", mode]
    if reflect:
        argv.append("--reflect")

    def check(rc, out):
        r = _response(rc, out)
        return (
            r is not None
            and r.get("case") == case
            and r.get("model") == model
            and (r.get("cell") or {}).get("dim") in (0, 1, 2)
        )

    return Request(tuple(argv), check)


def chamber_sweep(rng) -> list[Request]:
    """Every item of both tables once, every other one sent through --reflect."""
    items = [(item, "gt3") for item in GT3_ITEMS] + [(item, "eq3") for item in EQ3_ITEMS]
    return [chamber_request(rng, item, mode, i % 2 == 1) for i, (item, mode) in enumerate(items)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def stability_round(rng) -> list[Request]:
    """4 modules per stratum at n = 5 (Y1: 2 rational, 2 irrational), 48 requests."""
    out = []
    for _ in range(2):
        for entry in STRATUM_BUILDERS:
            reps = 1 if entry[0] == "Y1" else 2
            for _ in range(reps):
                out += stability_pair(rng, 5, entry)
    return out


def stability_warmup(rng) -> list[Request]:
    return [r for entry in STRATUM_BUILDERS for r in stability_pair(rng, 5, entry)]


def conic_round(rng) -> list[Request]:
    """20 requests: 6 modules and 3 families at n = 20, 2 modules and 1 family at n = 60.

    Sorted by latency the classes fall as conic-20 < cokernel-20 < modify-20
    < conic-60 < cokernel-60 < modify-60, so the median lands inside the
    cokernel-20 class and the 90th percentile inside the cokernel-60 class.
    """
    out = []
    for _ in range(6):
        out += conic_requests(rng, 20)
    out += [modify_request(rng, 20) for _ in range(3)]
    for _ in range(2):
        out += conic_requests(rng, 60)
    out.append(modify_request(rng, 60))
    return out


def conic_warmup(rng) -> list[Request]:
    return conic_requests(rng, 20) + [modify_request(rng, 20)]


T4_TAIL = 9


def motivic_round(rng) -> list[Request]:
    """44 requests: the 29-item chamber sweep, 9 T4(200), and one of each other space.

    T4(200) is a fifth of the requests, so the 90th percentile lands in the
    middle of its class; chamber requests are two thirds and set the median.
    """
    k = rng.randint(2, 6)
    poincare = [
        t4_request(6),
        t4_request(50),
        mbar_gr_request(rng.randint(8, 40)),
        grassmannian_request(k, rng.randint(k + 4, 16)),
        sym2_request(rng.randint(3, 30)),
        mp2_request(),
    ]
    return chamber_sweep(rng) + poincare + [t4_request(200) for _ in range(T4_TAIL)]


def motivic_warmup(rng) -> list[Request]:
    """Fixed sizes, so set-up time does not depend on the seed."""
    return [t4_request(n) for n in (3, 4, 5, 6)] + [
        mbar_gr_request(20),
        grassmannian_request(3, 9),
        sym2_request(10),
        mp2_request(),
    ] + chamber_sweep(rng)[:4]


WORKLOADS = {
    "stability-n5": (stability_round, stability_warmup),
    "conic-wide": (conic_round, conic_warmup),
    "motivic-chamber": (motivic_round, motivic_warmup),
}
