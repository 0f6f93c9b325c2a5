"""Wedge coordinates of the degree-2 map attached to a Kronecker module.

A module M gives a 2 x (n+1) matrix G of binary linear forms (column 1 of M
pairs with s, column 2 with t); its 2x2 minors are the Pluecker coordinates
p_I(s, t), one binary quadratic per pair I = {i < j}, tracing out a conic in
the Pluecker space of the Grassmannian of codimension-2 subspaces.  The
envelope is the span of the coefficient vectors of s^2, st, t^2 across all I,
a plane for an honest conic.

For a one-parameter family M(lambda) the wedge may vanish identically at
lambda = 0 without vanishing nearby; the elementary modification divides all
coordinates by the maximal common power of lambda and then specializes.
Residual base points of the modified conic (common roots of the coordinates
at lambda = 0) are reported so the caller can see where stabilization would
act; the blow-up charts beyond that point are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IdenticallyZero, ZeroConic
from .kronecker import (
    KroneckerModule,
    LinearForm,
    column_minors,
    index_pairs,
    integer_minors,
    json_n,
    json_n_and_matrix,
)
from .linalg import (
    ALL_ZERO,
    BinaryForm,
    as_rat,
    bareiss,
    clear_denominators,
    json_array,
    quadratic_gcd,
    quadratic_root_structure,
    quadratics_over,
)


class PluckerConic:
    """Tuple of binary quadratics p_I indexed by pairs I = {i < j} in {0..n}."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: dict):
        expected = index_pairs(n)
        if set(coords) != set(expected):
            raise ValueError("coordinates must cover every index pair exactly once")
        for f in coords.values():
            if f.degree != 2:
                raise ValueError("each Pluecker coordinate must be a binary quadratic")
        self.n = n
        self.coords = {pair: coords[pair] for pair in expected}

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.coords.values())

    def forms(self) -> list[BinaryForm]:
        return list(self.coords.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PluckerConic):
            return NotImplemented
        return self.n == other.n and self.coords == other.coords

    def __repr__(self) -> str:
        nz = {ij: f for ij, f in self.coords.items() if not f.is_zero}
        return f"PluckerConic(n={self.n}, nonzero={nz!r})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "coords": {f"{i},{j}": self.coords[(i, j)].to_json() for i, j in self.coords},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PluckerConic":
        n = json_n(doc)
        if not isinstance(doc["coords"], dict):
            raise ValueError("'coords' must be a JSON object")
        coords = {}
        for key, cs in doc["coords"].items():
            i, j = (int(part) for part in key.split(","))
            coords[(i, j)] = BinaryForm(2, json_array(cs, "a coordinate"))
        return cls(n, coords)


@dataclass(frozen=True)
class Envelope:
    """Span of the coefficient vectors of a conic, in reduced echelon form."""

    dim: int
    basis: tuple[tuple[Fraction, ...], ...]


def plucker_conic(M: KroneckerModule) -> PluckerConic:
    """Wedge coordinates of the pencil matrix of M, one quadratic per pair."""
    minors = column_minors(M)
    return PluckerConic(M.n, dict(zip(index_pairs(M.n), minors)))


def envelope(c: PluckerConic) -> Envelope:
    """Linear envelope of the conic: the span of its three coefficient slices."""
    if c.is_zero:
        raise ZeroConic("the envelope of the zero conic is undefined")
    # scaling a slice by a nonzero constant changes neither its span nor the rref
    slices = [clear_denominators(f.coeffs[k] for f in c.coords.values())[0] for k in range(3)]
    rows, pivots, d = bareiss(slices)
    return Envelope(len(pivots), tuple(tuple(Fraction(x, d) for x in row) for row in rows))


def conic_degree(c: PluckerConic) -> int:
    """Parametrized degree: 2 minus the degree of the common factor.

    A common linear factor of all coordinates drops the degree by one; a
    common quadratic factor means the map is constant.
    """
    if c.is_zero:
        raise ZeroConic("the degree of the zero conic is undefined")
    g = quadratic_gcd(clear_denominators(f.coeffs)[0] for f in c.forms())
    return 2 - g.degree


class LambdaFamily:
    """2x2 matrix whose entries are polynomials in lambda with LinearForm coefficients."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        if n < 2:
            raise ValueError("ambient parameter n must be >= 2")
        rows = tuple(tuple(tuple(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("entries must form a 2x2 matrix")
        for row in rows:
            for entry in row:
                for f in entry:
                    if not isinstance(f, LinearForm) or f.n != n:
                        raise ValueError("entry coefficients must be LinearForms sharing n")
        self.n = n
        self.entries = rows

    def specialize(self, lam) -> KroneckerModule:
        """The module at a rational parameter value; raises if the matrix is zero there."""
        lam = as_rat(lam)
        forms = []
        for row in self.entries:
            for entry in row:
                f = LinearForm.zero(self.n)
                power = Fraction(1)
                for coeff_form in entry:
                    f = f + power * coeff_form
                    power *= lam
                forms.append(f)
        return KroneckerModule(self.n, *forms)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [
                [[f.to_json() for f in entry] for entry in row] for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LambdaFamily":
        n, rows = json_n_and_matrix(doc)
        entries = [
            [[LinearForm(n, tuple(json_array(f, "a form"))) for f in json_array(e, "an entry")]
             for e in row]
            for row in rows
        ]
        return cls(n, entries)


@dataclass(frozen=True)
class ModificationResult:
    """Outcome of the lambda-power division step.

    k is the power of lambda divided out of every wedge coordinate, conic is
    the modified conic at lambda = 0, base_gcd the common factor of its
    coordinates (degree 0 when base-point-free), and base_points the rational
    common roots, where the modified map still fails to be defined.
    """

    k: int
    conic: PluckerConic
    base_gcd: BinaryForm
    base_points: tuple[tuple[Fraction, Fraction], ...]


def _wedge_by_degree(F: LambdaFamily):
    """The wedge coordinates of D * F, one list of integer triples per power of lambda.

    D is the least common denominator of the family, so the coordinates of F
    are these over D^2.  The lambda^k coefficient of the minor over i < j sums,
    over d1 + d2 = k, the minors of the pencil rows of degrees d1 and d2.
    Returns a generator of (k, triples) and D^2.
    """
    flat = [c for row in F.entries for entry in row for f in entry for c in f.coeffs]
    ints, d = clear_denominators(flat)
    coeffs = iter(ints)
    size = F.n + 1
    zero = [0] * size

    def pencil(row):
        """Per lambda degree, the coefficients of s and of t in the row."""
        left, right = ([[next(coeffs) for _ in range(size)] for _ in entry] for entry in row)
        return [
            (left[e] if e < len(left) else zero, right[e] if e < len(right) else zero)
            for e in range(max(1, len(left), len(right)))
        ]

    top, bottom = pencil(F.entries[0]), pencil(F.entries[1])

    def degrees():
        for k in range(len(top) + len(bottom) - 1):
            total = None
            for d1 in range(max(0, k - len(bottom) + 1), min(k, len(top) - 1) + 1):
                part = integer_minors(*top[d1], *bottom[k - d1])
                total = list(part) if total is None else [
                    (x + u, y + v, z + w) for (x, y, z), (u, v, w) in zip(total, part)
                ]
            yield k, total

    return degrees(), d * d


def _conic(n: int, triples, den: int) -> PluckerConic:
    return PluckerConic(n, dict(zip(index_pairs(n), quadratics_over(triples, den))))


def family_conic(F: LambdaFamily, lam) -> PluckerConic:
    """Wedge coordinates of the family at a specific rational parameter value."""
    lam = as_rat(lam)
    degrees, den = _wedge_by_degree(F)
    slices = [triples for _, triples in degrees]
    # sum_k T_k (p/q)^k = sum_k T_k p^k q^(K-k) / q^K, with K the top degree
    p, q = lam.numerator, lam.denominator
    top = len(slices) - 1
    weights = [p**k * q ** (top - k) for k in range(top + 1)]
    values = [
        tuple(sum(w * t[i] for w, t in zip(weights, column)) for i in range(3))
        for column in zip(*slices)
    ]
    return _conic(F.n, values, den * q**top)


def modify_family(F: LambdaFamily) -> ModificationResult:
    """Divide the wedge of the family by its maximal lambda power, then set lambda = 0."""
    degrees, den = _wedge_by_degree(F)
    for k, triples in degrees:
        if any(any(t) for t in triples):
            break
    else:
        raise IdenticallyZero("the wedge of the family vanishes for every lambda")
    conic = _conic(F.n, triples, den)
    g = quadratic_gcd(triples)
    assert g is not ALL_ZERO  # impossible by minimality of k
    points: tuple[tuple[Fraction, Fraction], ...] = ()
    if g.degree >= 1:
        points = quadratic_root_structure(g).roots
    return ModificationResult(k, conic, g, points)
