"""Wedge coordinates of the degree-2 map attached to a Kronecker module.

A module M gives a 2 x (n+1) matrix G of binary linear forms (column 1 of M
pairs with s, column 2 with t); its 2x2 minors are the Pluecker coordinates
p_I(s, t), one binary quadratic per pair I = {i < j}, tracing out a conic in
the Pluecker space of the Grassmannian of codimension-2 subspaces.  The
envelope is the span of the coefficient vectors of s^2, st, t^2 across all I,
a plane for an honest conic.  The records here wrap plucker's integer
routines, which serve the CLI conic and modify requests alone.

For a one-parameter family M(lambda) the wedge may vanish identically at
lambda = 0 without vanishing nearby; the elementary modification divides all
coordinates by the maximal common power of lambda and then specializes.
Residual base points of the modified conic (common roots of the coordinates
at lambda = 0) are reported so the caller can see where stabilization would
act; the blow-up charts beyond that point are out of scope.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from types import MappingProxyType
from typing import NamedTuple

from .kronecker import KroneckerModule, LinearForm, index_pairs
from .linalg import BinaryForm, RatMatrix, common_denominator, quadratic_root_structure
from .plucker import (coords_text, degree, envelope_rows, envelope_text, family_entries,
                      modified_wedge, read_family, triple_texts, wedge)
from .strata import json_n, span_basis
from .wire import JsonText, json_array, lowest_terms, num_den, rat_strings, rationals


class PluckerConic(RatMatrix):
    """Tuple of binary quadratics p_I indexed by pairs I = {i < j} in {0..n}.

    A matrix with one row per pair, in index_pairs order, holding the
    coefficient triple of p_I.  coords builds every quadratic on each read, as
    a read-only mapping: read it once to look up many.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, coords: dict):
        expected = index_pairs(n)
        if set(coords) != set(expected):
            raise ValueError("coordinates must cover every index pair exactly once")
        forms = [coords[pair] for pair in expected]
        if any(f.degree != 2 for f in forms):
            raise ValueError("each Pluecker coordinate must be a binary quadratic")
        self._store(n, *common_denominator(forms))

    @classmethod
    def from_ints(cls, n: int, nums, den: int = 1) -> "PluckerConic":
        """The conic whose triples, flattened in index_pairs order, are nums / den."""
        c = object.__new__(cls)
        c._store(n, nums, den)
        return c

    def _store(self, n: int, nums, den: int) -> None:
        """Every constructor's storage, after the one check of n."""
        if n < 2:
            raise ValueError("ambient parameter n must be >= 2")
        self.nums, self.den = lowest_terms(nums, den)
        self.rows, self.cols, self.n = len(self.nums) // 3, 3, n

    def triples(self):
        """The integer coefficient triples of den * p_I, lazily, in index_pairs order."""
        return self._split(self.nums)

    @property
    def coords(self) -> MappingProxyType:
        forms = (BinaryForm.from_ints(t, self.den) for t in self.triples())
        return MappingProxyType(dict(zip(index_pairs(self.n), forms)))

    def __repr__(self) -> str:
        nz = {ij: f for ij, f in self.coords.items() if not f.is_zero}
        return f"PluckerConic(n={self.n}, nonzero={nz!r})"

    def coords_text(self) -> JsonText:
        return coords_text(self.n, triple_texts(self.nums, self.den))

    def json_text(self) -> JsonText:
        return JsonText(f'{{"coords":{self.coords_text()},"n":{self.n}}}')

    @classmethod
    def from_json(cls, doc: dict) -> "PluckerConic":
        n = json_n(doc)
        coords = doc["coords"]
        if not isinstance(coords, dict):
            raise ValueError("'coords' must be a JSON object")
        # the count first: a small document is rejected without the keys of a large n
        keys = ([f"{i},{j}" for i, j in index_pairs(n)]
                if len(coords) == comb(max(n + 1, 0), 2) else None)
        if keys is None or set(coords) != set(keys):
            raise ValueError("'coords' must have exactly the keys 'i,j' for 0 <= i < j <= n")
        triples = [json_array(coords[key], "a coordinate") for key in keys]
        if any(len(t) != 3 for t in triples):
            raise ValueError("each Pluecker coordinate must be a binary quadratic")
        return cls.from_ints(n, *rationals(x for t in triples for x in t))


class Envelope(RatMatrix):
    """Span of the coefficient vectors of a conic, in reduced echelon form;
    dim is its number of rows, and basis builds their Fractions."""

    __slots__ = ()
    dim = RatMatrix.rows
    basis = RatMatrix.entries

    def __init__(self, dim: int, basis):
        super().__init__(basis)
        if self.rows != dim:
            raise ValueError(f"expected {dim} basis rows, got {self.rows}")

    def __repr__(self) -> str:
        return f"Envelope(dim={self.dim}, basis={self.json_rows()})"

    def json_text(self) -> JsonText:
        return envelope_text(self.nums, self.den, self.dim)


def plucker_conic(M: KroneckerModule) -> PluckerConic:
    """Wedge coordinates of the pencil matrix of M, one quadratic per pair."""
    return PluckerConic.from_ints(M.n, wedge(*M.int_rows())[0], M.den * M.den)


def envelope(c: PluckerConic) -> Envelope:
    """Linear envelope of the conic: the span of its three coefficient slices."""
    rows, det, _ = envelope_rows(c.nums, span_basis(c.triples()), max(map(abs, c.nums)))
    return Envelope.from_ints(rows, det, c.rows)


def conic_degree(c: PluckerConic) -> int:
    """Parametrized degree: 2 minus the degree of the common factor."""
    return degree(span_basis(c.triples()))


class LambdaFamily:
    """2x2 matrix whose entries are polynomials in lambda with LinearForm coefficients.

    Stored like a KroneckerModule, as ints over one positive denominator den,
    brought to lowest terms once when constructed: nums[r][c] lists, per power
    of lambda, the numerators of the coefficient form of entry (r, c).
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, entries):
        rows = tuple(tuple(tuple(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("entries must form a 2x2 matrix")
        forms = [f for row in rows for entry in row for f in entry]
        if any(not isinstance(f, LinearForm) or f.n != n for f in forms):
            raise ValueError("entry coefficients must be LinearForms sharing n")
        nums, den = lowest_terms(*common_denominator(forms))
        self.n, self.nums, self.den = family_entries(n, rows[0] + rows[1], nums, den)

    def _integer_values(self, lam):
        """(m11, m12, m21, m22, d): the coefficient tuples of d * F(lam), all integers.

        With lam = p / q and K the top power of lambda, an entry sum_k c_k lam^k
        is sum_k c_k p^k q^(K-k) / q^K, so d = den * q^K serves all four.
        """
        p, q = num_den(lam)
        top = max(1, *(len(entry) for row in self.nums for entry in row)) - 1
        weights = [p**k * q ** (top - k) for k in range(top + 1)]
        values = [
            [sum(w * c for w, c in zip(weights, column)) for column in zip(*entry)] or [0] * (self.n + 1)
            for row in self.nums
            for entry in row
        ]
        return (*values, self.den * q**top)

    def specialize(self, lam) -> KroneckerModule:
        """The module at a rational parameter value; raises if the matrix is zero there."""
        *values, d = self._integer_values(lam)
        return KroneckerModule.from_ints(self.n, [x for v in values for x in v], d)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [
                [[rat_strings(f, self.den) for f in entry] for entry in row] for row in self.nums
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LambdaFamily":
        family = object.__new__(cls)
        family.n, family.nums, family.den = read_family(doc)
        return family


class ModificationResult(NamedTuple):
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


def family_conic(F: LambdaFamily, lam) -> PluckerConic:
    """Wedge coordinates of the family at a specific rational parameter value."""
    *rows, d = F._integer_values(lam)
    return PluckerConic.from_ints(F.n, wedge(*rows)[0], d * d)


def modify_family(F: LambdaFamily) -> ModificationResult:
    """Divide the wedge of the family by its maximal lambda power, then set lambda = 0."""
    k, positions, nums, den, g = modified_wedge(F.n, F.nums, F.den)
    triples = [(0, 0, 0)] * comb(F.n + 1, 2)
    for p, t in zip(positions, zip(*[iter(nums)] * 3)):
        triples[p] = t
    conic = PluckerConic.from_ints(F.n, chain.from_iterable(triples), den)
    base_gcd = BinaryForm.from_ints(g)
    points = quadratic_root_structure(base_gcd).roots if len(g) > 1 else ()
    return ModificationResult(k, conic, base_gcd, points)
