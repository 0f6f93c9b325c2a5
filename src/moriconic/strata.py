"""The integer decision of GIT stability and of the orbit-type strata.

A module M is unstable when a constant nullvector exists on either side (a
zero row or column after row/column operations); as M is rational, one
exists over Q whenever one exists.  M is strictly semistable when along some
direction v = (s, t) the two entries of Mv become proportional, i.e. the
2 x (n+1) coefficient matrix of Mv drops to rank <= 1, which the gcd of its
2x2 minors, binary quadratics in (s, t), detects.  The gcd separates the
orbit types:

    all minors zero          -> Y0 (scalar matrices)
    gcd with a double root   -> Z0 (triangular, proportional diagonal)
    gcd with distinct roots  -> Y1 (non-scalar diagonal), even when the roots
                                are an irrational conjugate pair
    gcd of degree 1          -> Z1 (generic triangular)
    gcd of degree 0          -> stable

Verdicts depend only on the projective class, so decide reads M's integer
rows and ignores their denominator: proportional columns or rows by cross
products, the minor gcd from the at most 3-dimensional span of the minors.
Strata, verdicts, witness and root kinds are wire strings here ("Y1",
"rank_drop"); kronecker maps them to its Enums.  read_module reads a module
document, and stability_text and stratify_text serve a request document with
it, so a stability or stratify request loads only this module and wire.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .wire import SCHEMA_VERSION, json_array, json_strings, rationals


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


def checked(n: int, nums: tuple[int, ...], den: int) -> tuple[int, tuple[int, ...], int]:
    """(n, nums, den) after every module constructor's one check of n, the
    length and the zero matrix."""
    if n < 2:
        raise ValueError("ambient parameter n must be >= 2")
    if len(nums) != 4 * (n + 1):
        raise ValueError(f"expected {4 * (n + 1)} coefficients, got {len(nums)}")
    if not any(nums):
        raise ValueError("the zero matrix is not a point of the projective space")
    return n, nums, den


def read_module(doc: dict) -> tuple[int, tuple[int, ...], int]:
    """(n, nums, den) of a module document: its entries m11, m12, m21, m22,
    flattened, as lowest-terms nums / den, checked."""
    n, forms = json_n_and_entries(doc)
    # rationals gives lowest terms already
    return checked(n, *rationals(json_coefficients(n, forms)))


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


def _dependency(u, w) -> tuple[int, int] | None:
    """Coprime (v0, v1), first nonzero entry positive, with v0 u + v1 w = 0;
    None when the integer vectors u and w are independent."""
    k = next((i for i, x in enumerate(u) if x), None)
    if k is None:
        return (1, 0)
    uk, wk = u[k], w[k]
    if any(uk * y != wk * x for x, y in zip(u, w)):
        return None
    g = math.gcd(uk, wk)
    v0, v1 = wk // g, -uk // g
    return (v0, v1) if v0 > 0 or (v0 == 0 and v1 > 0) else (-v0, -v1)


def destabilizing_witness(a1, b1, a2, b2) -> tuple[str, tuple[int, int], None] | None:
    """(kind, v, None) for an integer v with Mv = 0 (a zero column) or else
    with v^T M = 0 (a zero row), or None when neither exists.

    Such v exists exactly when the two columns of M are proportional, or the
    two rows; integer cross products decide both.
    """
    for kind, u, w in (("zero_column", a1 + a2, b1 + b2), ("zero_row", a1 + b1, a2 + b2)):
        v = _dependency(u, w)
        if v is not None:
            return kind, v, None
    return None


def normalized(nums: Sequence[int]) -> tuple[int, ...]:
    """Nonzero integer coefficients divided by their gcd, the first nonzero one made positive."""
    g = math.gcd(*nums)
    if next(v for v in nums if v) < 0:
        g = -g
    return tuple(v // g for v in nums)


def cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    """The cross product u x v of two integer triples."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def span_basis(triples: Iterable[Sequence[int]]) -> list[Sequence[int]]:
    """The first nonzero triple, the first off its line and the first off their
    plane: the pivot columns of the matrix whose columns are the triples.

    Reading stops at the third; the number returned is the rank.
    """
    basis: list[Sequence[int]] = []
    for v in triples:
        if len(basis) == 2:
            if normal[0] * v[0] + normal[1] * v[1] + normal[2] * v[2]:
                basis.append(v)
                break
        elif basis:
            normal = cross(basis[0], v)
            if any(normal):
                basis.append(v)
        elif any(v):
            basis.append(v)
    return basis


def gcd_coefficients(triples: Iterable[Sequence[int]]) -> tuple[int, ...] | None:
    """Gcd of binary quadratics given as integer coefficient triples: its
    coefficients, coprime integers with a positive leading entry, or None when
    every triple is zero.

    The triples span at most three dimensions, and the span decides the gcd.
    Dimension 3 leaves no common factor.  In dimension 2 the cross product
    (X, Y, Z) of two basis triples is proportional to (s0^2, s0 t0, t0^2) for
    every common root (s0 : t0), so the basis shares a root exactly when the
    resultant Y^2 - XZ vanishes, and then the root is (X : Y), or (0 : 1) when
    X = 0.  In dimension 1 every triple is a multiple of the first nonzero one.
    """
    basis = span_basis(triples)
    if not basis:
        return None
    if len(basis) == 1:
        return normalized(basis[0])
    x, y, z = cross(*basis[:2])
    if len(basis) == 3 or y * y != x * z:
        return (1,)
    s0, t0 = (x, y) if x else (y, z)
    return normalized((t0, -s0))


def _point(s: int, t: int) -> tuple[int, int]:
    """The projective point (s : t), (s, t) != (0, 0), as coprime integers with
    t > 0, or (1, 0) when t = 0."""
    if not t:
        return (1, 0)
    g = math.gcd(s, t) if t > 0 else -math.gcd(s, t)
    return (s // g, t // g)


def root_points(nums: Sequence[int]) -> tuple[str, tuple[tuple[int, int], ...], int | None]:
    """The roots of a nonzero integer binary form of degree 1 or 2: their kind,
    the rational ones as coprime points (s, t) with t > 0 or (1, 0), and the
    integer discriminant c1^2 - 4 c0 c2 of a quadratic (None for a linear form).
    A quadratic with two distinct roots has both or neither listed: they are
    rational exactly when the discriminant is a square."""
    if len(nums) == 2:
        c0, c1 = nums
        return "simple_root", (_point(-c1, c0),), None
    c0, c1, c2 = nums
    d = c1 * c1 - 4 * c0 * c2
    if d == 0:
        # when c0 = 0 then c1 = 0 too, and the double root is (1 : 0)
        return "double_root", (_point(-c1, 2 * c0),), d
    if c0 == 0:
        # t divides the form
        return "two_distinct_roots", ((1, 0), _point(-c2, c1)), d
    if d > 0 and (w := math.isqrt(d)) ** 2 == d:
        return "two_distinct_roots", (_point(-c1 + w, 2 * c0), _point(-c1 - w, 2 * c0)), d
    return "two_distinct_roots", (), d


# Per stratum: the verdict, whether the orbit is closed, and the stabilizer.
CLASSES = {
    "unstable_locus": ("unstable", None, None),
    "Y0": ("strictly_semistable", True, "SL2_Z2"),
    "Z0": ("strictly_semistable", False, None),
    "Y1": ("strictly_semistable", True, "Cstar_Z2"),
    "Z1": ("strictly_semistable", False, None),
    "stable_locus": ("stable", True, "finite"),
}


def decide(nums: Sequence[int]) -> tuple[str, tuple | None]:
    """(stratum, witness) of the module whose rows m11, m12, m21, m22,
    flattened, are nums, from one integer pass.

    The witness of an unstable module is destabilizing_witness's.  That of a
    strictly semistable one is ("rank_drop", (s, t), None) for a rational root
    (s : t) of the minor gcd, as root_points writes it ((1, 0) on Y0, where
    every direction drops the rank), or ("gcd_certificate", None, the gcd's
    coefficients) when its two roots are irrational.  A stable module has none.
    """
    size = len(nums) // 4
    a1, b1, a2, b2 = (nums[i:i + size] for i in range(0, 4 * size, size))
    w = destabilizing_witness(a1, b1, a2, b2)
    if w is not None:
        return "unstable_locus", w
    g = gcd_coefficients(integer_minors(a1, b1, a2, b2))
    if g is None:
        return "Y0", ("rank_drop", (1, 0), None)
    if len(g) == 1:
        return "stable_locus", None
    kind, points, _ = root_points(g)
    stratum = "Z1" if len(g) == 2 else "Y1" if kind == "two_distinct_roots" else "Z0"
    if points:
        return stratum, ("rank_drop", points[0], None)
    return stratum, ("gcd_certificate", None, g)


def vector_strings(kind: str, s: int, t: int) -> list[str]:
    """The wire strings of the witness vector at decide's integer point (s, t):
    (s/t, 1) for a rank drop with t > 1, and (s, t) itself otherwise."""
    return [f"{s}/{t}", "1"] if kind == "rank_drop" and t > 1 else [str(s), str(t)]


def _json_value(value) -> str:
    """The JSON text of None, a bool, or a string that needs no escaping."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    return f'"{value}"'


# Per stratum: the CLI stability document up to its witness, as the CLI's
# encoder writes it (sorted keys, compact).
_STABILITY_HEADS = {
    stratum: (f'{{"closed_orbit":{_json_value(closed)},"schema_version":{SCHEMA_VERSION},'
              f'"stabilizer":{_json_value(stabilizer)},"verdict":{_json_value(verdict)},"witness":')
    for stratum, (verdict, closed, stabilizer) in CLASSES.items()
}

# Per stratum: the whole CLI stratify document.
_STRATIFY_TEXTS = {
    stratum: f'{{"schema_version":{SCHEMA_VERSION},"stratum":"{stratum}"}}'
    for stratum in CLASSES
}


def stability_text(doc: dict) -> str:
    """The CLI stability document of a module document, schema_version
    included: its stratum's fixed members, then the witness written from
    decide's integers with the strings str(Fraction) gives."""
    stratum, found = decide(read_module(doc)[1])
    head = _STABILITY_HEADS[stratum]
    if found is None:
        return head + "null}"
    kind, point, form = found
    vector = "null" if point is None else json_strings(vector_strings(kind, *point))
    form = "null" if form is None else json_strings([str(c) for c in form])
    return f'{head}{{"form":{form},"kind":"{kind}","vector":{vector}}}}}'


def stratify_text(doc: dict) -> str:
    """The CLI stratify document of a module document, schema_version included."""
    return _STRATIFY_TEXTS[decide(read_module(doc)[1])[0]]
