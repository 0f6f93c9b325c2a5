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
from math import lcm
from types import MappingProxyType

from .errors import IdenticallyZero, ZeroConic
from .kronecker import (
    KroneckerModule,
    LinearForm,
    index_pairs,
    integer_coefficients,
    integer_minors,
    json_n,
    json_n_and_matrix,
)
from .linalg import (
    ALL_ZERO,
    BinaryForm,
    bareiss,
    json_array,
    lowest_terms,
    num_den,
    quadratic_gcd,
    quadratic_root_structure,
    rat_strings,
    rationals,
    rescaled,
)


class PluckerConic:
    """Tuple of binary quadratics p_I indexed by pairs I = {i < j} in {0..n}.

    Stored as integer numerators nums over one denominator den, in lowest
    terms: the coefficient triples of the p_I, flattened in index_pairs
    order.  coords builds the quadratics when first read, as a read-only
    mapping, so it cannot drift from the storage.
    """

    __slots__ = ("n", "nums", "den", "_coords")

    def __init__(self, n: int, coords: dict):
        expected = index_pairs(n)
        if set(coords) != set(expected):
            raise ValueError("coordinates must cover every index pair exactly once")
        forms = [coords[pair] for pair in expected]
        if any(f.degree != 2 for f in forms):
            raise ValueError("each Pluecker coordinate must be a binary quadratic")
        den = lcm(*(f.den for f in forms))
        nums = [x for f in forms for x in rescaled(f.nums, f.den, den)]
        self.nums, self.den = lowest_terms(nums, den)
        self.n, self._coords = n, None

    @classmethod
    def from_ints(cls, n: int, nums, den: int = 1) -> "PluckerConic":
        """The conic whose triples, flattened in index_pairs order, are nums / den."""
        c = object.__new__(cls)
        c.n, c._coords = n, None
        c.nums, c.den = lowest_terms(nums, den)
        return c

    def triples(self):
        """The integer coefficient triples of den * p_I, in index_pairs order."""
        it = iter(self.nums)
        return zip(it, it, it)

    @property
    def coords(self) -> MappingProxyType:
        if self._coords is None:
            forms = (BinaryForm.from_ints(t, self.den) for t in self.triples())
            self._coords = MappingProxyType(dict(zip(index_pairs(self.n), forms)))
        return self._coords

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PluckerConic):
            return NotImplemented
        return (self.n, self.nums, self.den) == (other.n, other.nums, other.den)

    def __repr__(self) -> str:
        nz = {ij: f for ij, f in self.coords.items() if not f.is_zero}
        return f"PluckerConic(n={self.n}, nonzero={nz!r})"

    def to_json(self) -> dict:
        strings = rat_strings(self.nums, self.den)
        return {"n": self.n, "coords": {f"{i},{j}": strings[3 * k:3 * k + 3]
                                        for k, (i, j) in enumerate(index_pairs(self.n))}}

    @classmethod
    def from_json(cls, doc: dict) -> "PluckerConic":
        n = json_n(doc)
        if n < 2:
            raise ValueError("ambient parameter n must be >= 2")
        coords = doc["coords"]
        if not isinstance(coords, dict):
            raise ValueError("'coords' must be a JSON object")
        keys = [f"{i},{j}" for i, j in index_pairs(n)]
        if set(coords) != set(keys):
            raise ValueError("'coords' must have exactly the keys 'i,j' for 0 <= i < j <= n")
        triples = [json_array(coords[key], "a coordinate") for key in keys]
        if any(len(t) != 3 for t in triples):
            raise ValueError("each Pluecker coordinate must be a binary quadratic")
        return cls.from_ints(n, *rationals(x for t in triples for x in t))


class Envelope:
    """Span of the coefficient vectors of a conic, in reduced echelon form.

    Stored as the basis rows, flattened, over one denominator in lowest
    terms; basis builds the Fractions.
    """

    __slots__ = ("dim", "nums", "den")

    def __init__(self, dim: int, basis):
        self.dim = dim
        self.nums, self.den = rationals(x for row in basis for x in row)

    @classmethod
    def from_rows(cls, rows, den: int) -> "Envelope":
        e = object.__new__(cls)
        e.dim = len(rows)
        e.nums, e.den = lowest_terms([x for row in rows for x in row], den)
        return e

    def _rows(self, values) -> list:
        width = len(values) // self.dim if self.dim else 0
        return [values[k * width:(k + 1) * width] for k in range(self.dim)]

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self._rows(tuple(Fraction(x, self.den) for x in self.nums)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return (self.dim, self.nums, self.den) == (other.dim, other.nums, other.den)

    def __hash__(self) -> int:
        return hash((self.dim, self.nums, self.den))

    def __repr__(self) -> str:
        return f"Envelope(dim={self.dim}, basis={self._rows(rat_strings(self.nums, self.den))})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "basis": self._rows(rat_strings(self.nums, self.den))}


def plucker_conic(M: KroneckerModule) -> PluckerConic:
    """Wedge coordinates of the pencil matrix of M, one quadratic per pair."""
    a1, b1, a2, b2, d = integer_coefficients(M)
    flat = [x for t in integer_minors(a1, b1, a2, b2) for x in t]
    return PluckerConic.from_ints(M.n, flat, d * d)


def envelope(c: PluckerConic) -> Envelope:
    """Linear envelope of the conic: the span of its three coefficient slices."""
    if c.is_zero:
        raise ZeroConic("the envelope of the zero conic is undefined")
    # den * the slices have the same span and the same rref
    rows, _, d = bareiss([c.nums[k::3] for k in range(3)])
    return Envelope.from_rows(rows, d)


def conic_degree(c: PluckerConic) -> int:
    """Parametrized degree: 2 minus the degree of the common factor.

    A common linear factor of all coordinates drops the degree by one; a
    common quadratic factor means the map is constant.
    """
    if c.is_zero:
        raise ZeroConic("the degree of the zero conic is undefined")
    return 2 - quadratic_gcd(c.triples()).degree


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
        forms = []
        for row in self.entries:
            for entry in row:
                f = LinearForm.zero(self.n)
                for coeff_form in reversed(entry):  # Horner's rule
                    f = f.scale(lam) + coeff_form
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
    d = lcm(*(f.den for row in F.entries for entry in row for f in entry))
    zero = (0,) * (F.n + 1)

    def pencil(row):
        """Per lambda degree, the coefficients of s and of t in the row."""
        left, right = ([rescaled(f.nums, f.den, d) for f in entry] for entry in row)
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


def family_conic(F: LambdaFamily, lam) -> PluckerConic:
    """Wedge coordinates of the family at a specific rational parameter value."""
    p, q = num_den(lam)
    degrees, den = _wedge_by_degree(F)
    slices = [triples for _, triples in degrees]
    # sum_k T_k (p/q)^k = sum_k T_k p^k q^(K-k) / q^K, with K the top degree
    top = len(slices) - 1
    weights = [p**k * q ** (top - k) for k in range(top + 1)]
    values = [
        sum(w * t[i] for w, t in zip(weights, column))
        for column in zip(*slices)
        for i in range(3)
    ]
    return PluckerConic.from_ints(F.n, values, den * q**top)


def modify_family(F: LambdaFamily) -> ModificationResult:
    """Divide the wedge of the family by its maximal lambda power, then set lambda = 0."""
    degrees, den = _wedge_by_degree(F)
    for k, triples in degrees:
        if any(any(t) for t in triples):
            break
    else:
        raise IdenticallyZero("the wedge of the family vanishes for every lambda")
    conic = PluckerConic.from_ints(F.n, [x for t in triples for x in t], den)
    g = quadratic_gcd(triples)
    assert g is not ALL_ZERO  # impossible by minimality of k
    points: tuple[tuple[Fraction, Fraction], ...] = ()
    if g.degree >= 1:
        points = quadratic_root_structure(g).roots
    return ModificationResult(k, conic, g, points)
