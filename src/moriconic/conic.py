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

from bisect import bisect_right
from itertools import chain, combinations, islice, zip_longest
from math import comb
from operator import mul, neg
from types import MappingProxyType
from typing import NamedTuple

from .errors import IdenticallyZero, ZeroConic
from .kronecker import (
    KroneckerModule,
    LinearForm,
    index_pairs,
    json_coefficients,
    json_n,
    json_n_and_entries,
)
from .linalg import (
    ALL_ZERO,
    BinaryForm,
    RatMatrix,
    common_denominator,
    cross,
    quadratic_gcd,
    quadratic_root_structure,
    span_basis,
)
from .wire import (
    JsonText,
    json_array,
    json_strings,
    lowest_terms,
    num_den,
    pack_slots,
    rat_strings,
    rationals,
    read_slots,
    slot_bytes,
    slot_width,
)


def _pair_keys(n: int) -> list[str]:
    """The wire keys "i,j" of the pairs i < j in {0..n}, in index_pairs order."""
    return list(map(",".join, combinations(map(str, range(n + 1)), 2)))


def _pair_offsets(n: int) -> list[int]:
    """offsets[i] + j is the index_pairs position of the pair i < j in {0..n}."""
    return [i * (2 * n - i - 1) // 2 - 1 for i in range(n + 1)]


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
        """The coords object as wire text, its keys in sorted order.

        "," sorts below every digit, so "i,j" sorts by str(i) first, then by
        str(j): the keys run i, then j > i, through sorted(range(n + 1), key=str).
        """
        triples = list(map('","'.join, self._split(rat_strings(self.nums, self.den))))
        names = list(map(str, range(self.n + 1)))
        lex = sorted(range(self.n + 1), key=str)
        offsets = _pair_offsets(self.n)
        members = []
        for i in lex:
            head, base = f'"{names[i]},', offsets[i]
            members += [f'{head}{names[j]}":["{triples[base + j]}"]' for j in lex if j > i]
        return JsonText("{" + ",".join(members) + "}")

    def json_text(self) -> JsonText:
        return JsonText(f'{{"coords":{self.coords_text()},"n":{self.n}}}')

    @classmethod
    def from_json(cls, doc: dict) -> "PluckerConic":
        n = json_n(doc)
        coords = doc["coords"]
        if not isinstance(coords, dict):
            raise ValueError("'coords' must be a JSON object")
        # the count first: a small document is rejected without the keys of a large n
        keys = _pair_keys(n) if len(coords) == comb(max(n + 1, 0), 2) else None
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
        rows = map(json_strings, self._split(rat_strings(self.nums, self.den)))
        return JsonText(f'{{"basis":[{",".join(rows)}],"dim":{self.dim}}}')


def _wedge(n: int, a1, b1, a2, b2, d: int) -> PluckerConic:
    """The conic of the pencil rows (s * a1 + t * b1) / d and (s * a2 + t * b2) / d.

    With k-byte slots and W = 2^(8k), pencil row r packs as
    X_r = sum_j (a_r[j] + b_r[j] W) W^(3j), three slots per column.  Then
    (a1[i] + b1[i] W) X2 - (a2[i] + b2[i] W) X1 holds in its slots 3j, 3j + 1
    and 3j + 2 the triple of the minor over the columns i and j, for every j,
    and no slot exceeds 4 m^2 for m the largest entry: the minors of column i
    against every j > i are that product's slots from 3(i + 1) on.
    """
    k = slot_width(4 * max(map(abs, chain(a1, b1, a2, b2))) ** 2)
    w = 8 * k
    zero = (0,) * (n + 1)
    x1 = pack_slots([v for column in zip(a1, b1, zero) for v in column], k)
    x2 = pack_slots([v for column in zip(a2, b2, zero) for v in column], k)
    rows = slot_bytes([(a1i + (b1i << w)) * x2 - (a2i + (b2i << w)) * x1
                       for a1i, b1i, a2i, b2i in zip(a1, b1, a2, b2)], k, 3 * (n + 1))
    tails = b"".join([row[3 * k * i:] for i, row in enumerate(rows, 1)])
    return PluckerConic.from_ints(n, read_slots(tails, k), d * d)


def plucker_conic(M: KroneckerModule) -> PluckerConic:
    """Wedge coordinates of the pencil matrix of M, one quadratic per pair."""
    return _wedge(M.n, *M.int_rows(), M.den)


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def envelope(c: PluckerConic) -> Envelope:
    """Linear envelope of the conic: the span of its three coefficient slices.

    The slices are the rows of the matrix S whose columns are the triples of
    den * c, which has the same span and reduced echelon form.  Its pivot
    columns v_1, ..., v_r are the first r independent triples; completed by
    unit vectors to an invertible V = (v_1, v_2, v_3), the rows of
    adj(V) = (v_2 x v_3, v_3 x v_1, v_1 x v_2) take each column
    w = sum a_i v_i of S to det(V) a_i.  So the first r rows of adj(V) S,
    over det(V), are the reduced echelon basis.

    A row (x, y, z) of adj(V) takes S to x S_0 + y S_1 + z S_2: three products
    with the slices packed into slots that hold max |S| (|x| + |y| + |z|).
    With det(V) made positive, lowest terms divide the rows only when every
    entry shares a factor with det(V).
    """
    if c.is_zero:
        raise ZeroConic("the envelope of the zero conic is undefined")
    v = span_basis(c.triples())
    dim = len(v)
    if dim == 1:
        m = next(k for k in range(3) if v[0][k])
        v += [_UNITS[m - 2], _UNITS[m - 1]]  # det(V) = v_1[m]
    elif dim == 2:
        normal = cross(*v)
        v.append(_UNITS[next(k for k in range(3) if normal[k])])  # det(V) = normal[m]
    v1, v2, v3 = v
    adj = (cross(v2, v3), cross(v3, v1), cross(v1, v2))[:dim]
    det = sum(map(mul, v1, adj[0]))
    if det < 0:
        adj, det = [tuple(map(neg, row)) for row in adj], -det
    nums = c.nums
    k = slot_width(max(max(nums), -min(nums)) * max(sum(map(abs, row)) for row in adj))
    s0, s1, s2 = (pack_slots(nums[i::3], k) for i in range(3))
    rows = slot_bytes([x * s0 + y * s1 + z * s2 for x, y, z in adj], k, c.rows)
    return Envelope.from_ints(read_slots(b"".join(rows), k), det, c.rows)


def conic_degree(c: PluckerConic) -> int:
    """Parametrized degree: 2 minus the degree of the common factor.

    A common linear factor of all coordinates drops the degree by one; a
    common quadratic factor means the map is constant.
    """
    if c.is_zero:
        raise ZeroConic("the degree of the zero conic is undefined")
    return 2 - quadratic_gcd(c.triples()).degree


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
        self._store(n, [len(e) for row in rows for e in row], *common_denominator(forms))

    def _store(self, n: int, lengths, nums, den: int) -> None:
        """Every constructor's storage, after the one check of n: nums / den in lowest
        terms, split into forms of n + 1, lengths[i] of them in the i-th entry."""
        if n < 2:
            raise ValueError("ambient parameter n must be >= 2")
        flat, self.den = lowest_terms(nums, den)
        forms = (flat[i:i + n + 1] for i in range(0, len(flat), n + 1))
        e11, e12, e21, e22 = (tuple(islice(forms, k)) for k in lengths)
        self.nums, self.n = ((e11, e12), (e21, e22)), n

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
        n, entries = json_n_and_entries(doc)
        entries = [[json_array(f, "a form") for f in e] for e in entries]
        nums, den = rationals(json_coefficients(n, [f for entry in entries for f in entry]))
        family = object.__new__(cls)
        family._store(n, [len(e) for e in entries], nums, den)
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


_ZERO_TRIPLE = (0, 0, 0)


def _part_minors(row1, row2, offsets) -> dict:
    """{position: triple}: the minors over i < j of two pencil rows, each given as
    (s coefficients, t coefficients, support), that can be nonzero.  Every term
    of a minor reads one row at i and the other at j, so the pair needs a column
    in each support: i in the first and j in the second, or the other way round.
    The minor over i < j sits at index_pairs position offsets[i] + j."""
    a1, b1, support1 = row1
    a2, b2, support2 = row2
    only1, only2 = set(support1).difference(support2), set(support2).difference(support1)
    either = sorted(set(support1).union(support2))
    minors = {}
    for i in either:
        partners = support2 if i in only1 else support1 if i in only2 else either
        a1i, b1i, a2i, b2i = a1[i], b1[i], a2[i], b2[i]
        base = offsets[i]
        for j in partners[bisect_right(partners, i):]:
            a1j, b1j, a2j, b2j = a1[j], b1[j], a2[j], b2[j]
            minors[base + j] = (
                a1i * a2j - a1j * a2i,
                a1i * b2j + b1i * a2j - a1j * b2i - b1j * a2i,
                b1i * b2j - b1j * b2i,
            )
    return minors


def _lowest_wedge(F: LambdaFamily):
    """(k, {position: triple}): the lowest power k of lambda at which the wedge of
    den * F has a nonzero coordinate, and the coordinates that have a term at
    lambda^k, by index_pairs position; None when the wedge vanishes for every
    lambda.

    The coordinates of F are these over den^2.  The lambda^k coefficient of
    the minor over i < j sums, over d1 + d2 = k, the minors of the pencil rows
    of degrees d1 and d2, and a part adds only the pairs with a column in each
    row's support.  Each row starts at its lowest nonzero power, so k starts at
    the sum of the two, and leading zero powers cost nothing.
    """
    if not all(s_entry or t_entry for s_entry, t_entry in F.nums):
        return None  # a row with no form is zero, and nothing in the document bounds n
    zero = (0,) * (F.n + 1)
    rows = []
    for s_entry, t_entry in F.nums:
        # per lambda degree, the coefficients of s and of t and the columns where one is nonzero
        degrees = [
            (s, t, [i for i, (a, b) in enumerate(zip(s, t)) if a or b])
            for s, t in zip_longest(s_entry, t_entry, fillvalue=zero)
        ]
        low = next((d for d, (_, _, support) in enumerate(degrees) if support), None)
        if low is None:
            return None
        rows.append((low, degrees[low:]))
    (low1, top), (low2, bottom) = rows
    offsets = _pair_offsets(F.n)
    for k in range(len(top) + len(bottom) - 1):
        wedge = {}
        for d1 in range(max(0, k - len(bottom) + 1), min(k, len(top) - 1) + 1):
            part = _part_minors(top[d1], bottom[k - d1], offsets)
            if not wedge:
                wedge = part
                continue
            for p, (x, y, z) in part.items():
                u, v, w = wedge.get(p, _ZERO_TRIPLE)
                wedge[p] = (u + x, v + y, w + z)
        if any(map(any, wedge.values())):
            return low1 + low2 + k, wedge
    return None


def family_conic(F: LambdaFamily, lam) -> PluckerConic:
    """Wedge coordinates of the family at a specific rational parameter value."""
    return _wedge(F.n, *F._integer_values(lam))


def modify_family(F: LambdaFamily) -> ModificationResult:
    """Divide the wedge of the family by its maximal lambda power, then set lambda = 0."""
    lowest = _lowest_wedge(F)
    if lowest is None:
        raise IdenticallyZero("the wedge of the family vanishes for every lambda")
    k, wedge = lowest
    # lowest terms over the triples that have a term first, so that the conic's
    # own reduction over all C(n + 1, 2) triples has no zero left to divide
    flat, den = lowest_terms(chain.from_iterable(wedge.values()), F.den * F.den)
    triples = [_ZERO_TRIPLE] * comb(F.n + 1, 2)
    for p, t in zip(wedge, zip(*[iter(flat)] * 3)):
        triples[p] = t
    conic = PluckerConic.from_ints(F.n, chain.from_iterable(triples), den)
    # the zero triples leave the gcd as it is
    g = quadratic_gcd(wedge.values())
    assert g is not ALL_ZERO  # impossible by minimality of k
    points: tuple[tuple[Fraction, Fraction], ...] = ()
    if g.degree >= 1:
        points = quadratic_root_structure(g).roots
    return ModificationResult(k, conic, g, points)
