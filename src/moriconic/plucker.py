"""The integer Pluecker conic of a module or family: its wedge, envelope and degree.

The 2x2 minors of the pencil rows s * m11 + t * m12 and s * m21 + t * m22,
one binary quadratic per pair i < j in {0..n}, are the conic's coordinates;
the span of their coefficient slices is its envelope, and 2 minus the degree
of their gcd its degree.  Matrices stay unreduced integers over one
denominator, since the text writers reduce each entry as str(Fraction) would.
modified_wedge finds the lowest power of lambda at which a family's wedge has
a nonzero coordinate, or raises IdenticallyZero when there is none; the
modified conic keeps only the triples with a term there, by position.
conic_text and modify_text write a conic or modify request's document,
loading only this module, strata, packing and wire; conic builds its records
from the same routines.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice, zip_longest
from math import comb
from operator import mul, neg
from typing import Sequence

from .errors import IdenticallyZero, ZeroConic
from .packing import pack_slots, read_slots, slot_bytes, slot_width
from .strata import (cross, gcd_coefficients, json_coefficients, json_n_and_entries, read_module,
                     root_points, span_basis, vector_strings)
from .wire import SCHEMA_VERSION, json_array, json_strings, lowest_terms, rat_strings, rationals


def pair_offsets(n: int) -> list[int]:
    """offsets[i] + j is the index_pairs position of the pair i < j in {0..n}."""
    return [i * (2 * n - i - 1) // 2 - 1 for i in range(n + 1)]


def wedge(a1, b1, a2, b2) -> tuple[Sequence[int], int]:
    """(minors, bound): the triples of the minors of the pencil rows
    s * a1 + t * b1 and s * a2 + t * b2, flattened in index_pairs order, and
    4 m^2 >= every |minor coefficient|, m the largest |entry|.

    With k-byte slots and W = 2^(8k), pencil row r packs as
    X_r = sum_j (a_r[j] + b_r[j] W) W^(3j), three slots per column.  Then
    (a1[i] + b1[i] W) X2 - (a2[i] + b2[i] W) X1 holds in its slots 3j, 3j + 1
    and 3j + 2 the triple of the minor over the columns i and j, for every j,
    and no slot exceeds the bound: the minors of column i against every
    j > i are that product's slots from 3(i + 1) on.
    """
    bound = 4 * max(map(abs, chain(a1, b1, a2, b2))) ** 2
    k = slot_width(bound)
    w = 8 * k
    zero = (0,) * len(a1)
    x1 = pack_slots([v for column in zip(a1, b1, zero) for v in column], k)
    x2 = pack_slots([v for column in zip(a2, b2, zero) for v in column], k)
    rows = slot_bytes([(a1i + (b1i << w)) * x2 - (a2i + (b2i << w)) * x1
                       for a1i, b1i, a2i, b2i in zip(a1, b1, a2, b2)], k, 3 * len(a1))
    tails = b"".join([row[3 * k * i:] for i, row in enumerate(rows, 1)])
    return read_slots(tails, k), bound


def envelope_rows(nums: Sequence[int], basis: list, bound: int) -> tuple[Sequence[int], int, int]:
    """(rows, det, dim): the reduced echelon basis of the span of the slices
    S_0, S_1, S_2 of the triples nums, dim rows over det > 0, from their
    span_basis v_1, ..., v_r and a bound on every |nums[i]|.

    Completed by unit vectors to an invertible V = (v_1, v_2, v_3), the rows
    of adj(V) = (v_2 x v_3, v_3 x v_1, v_1 x v_2) take each triple
    w = sum a_i v_i to det(V) a_i, so the first r rows of adj(V) S, over
    det(V), are the reduced echelon basis.  A row (x, y, z) of adj(V) takes S
    to x S_0 + y S_1 + z S_2, with the slices packed into slots that hold
    bound (|x| + |y| + |z|).
    """
    if not basis:
        raise ZeroConic("the envelope of the zero conic is undefined")
    v, dim, units = list(basis), len(basis), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    if dim == 1:
        m = next(k for k in range(3) if v[0][k])
        v += [units[m - 2], units[m - 1]]  # det(V) = v_1[m]
    elif dim == 2:
        normal = cross(*v)
        v.append(units[next(k for k in range(3) if normal[k])])  # det(V) = normal[m]
    v1, v2, v3 = v
    adj = (cross(v2, v3), cross(v3, v1), cross(v1, v2))[:dim]
    det = sum(map(mul, v1, adj[0]))
    if det < 0:
        adj, det = [tuple(map(neg, row)) for row in adj], -det
    k = slot_width(bound * max(sum(map(abs, row)) for row in adj))
    s0, s1, s2 = (pack_slots(nums[i::3], k) for i in range(3))
    rows = slot_bytes([x * s0 + y * s1 + z * s2 for x, y, z in adj], k, len(nums) // 3)
    return read_slots(b"".join(rows), k), det, dim


def degree(basis: list) -> int:
    """The parametrized degree of a conic from its span_basis: 2 minus that of
    the common factor of its coordinates (a constant map has degree 0)."""
    if not basis:
        raise ZeroConic("the degree of the zero conic is undefined")
    return 3 - len(gcd_coefficients(basis))


def triple_texts(nums: Sequence[int], den: int) -> list[str]:
    """The triples nums / den, each as its three wire strings joined by '","'."""
    return list(map('","'.join, zip(*[iter(rat_strings(nums, den))] * 3)))


def coords_text(n: int, triples: Sequence[str]) -> str:
    """The coords object of the triple_texts in index_pairs order, its keys in
    sorted order.  "," sorts below every digit, so "i,j" sorts by str(i),
    then by str(j): i, then j > i, run through sorted(range(n + 1), key=str).
    """
    names = list(map(str, range(n + 1)))
    lex = sorted(range(n + 1), key=str)
    offsets = pair_offsets(n)
    members = []
    for i in lex:
        head, base = f'"{names[i]},', offsets[i]
        members += [f'{head}{names[j]}":["{triples[base + j]}"]' for j in lex if j > i]
    return "{" + ",".join(members) + "}"


def envelope_text(nums: Sequence[int], den: int, dim: int) -> str:
    """The envelope object of the dim basis rows nums / den, as wire text."""
    strings, size = rat_strings(nums, den), len(nums) // max(dim, 1)
    rows = [json_strings(strings[i * size:(i + 1) * size]) for i in range(dim)]
    return f'{{"basis":[{",".join(rows)}],"dim":{dim}}}'


def conic_text(doc: dict) -> str:
    """The CLI conic document of a module document, schema_version included:
    its coords, envelope and degree, written from integers."""
    n, nums, den = read_module(doc)
    minors, bound = wedge(*zip(*[iter(nums)] * (n + 1)))
    coords = coords_text(n, triple_texts(minors, den * den))
    basis = span_basis(zip(*[iter(minors)] * 3))
    env = envelope_text(*envelope_rows(minors, basis, bound))
    return (f'{{"coords":{coords},"degree":{degree(basis)},"envelope":{env},'
            f'"n":{n},"schema_version":{SCHEMA_VERSION}}}')


def family_entries(n: int, entries: Sequence, nums: Sequence[int], den: int) -> tuple[int, tuple, int]:
    """(n, ((m11, m12), (m21, m22)), den) of a family, after its one check of n: nums / den,
    in lowest terms, split into forms of n + 1, as many per entry as entries[i] holds."""
    if n < 2:
        raise ValueError("ambient parameter n must be >= 2")
    forms = (nums[i:i + n + 1] for i in range(0, len(nums), n + 1))
    m11, m12, m21, m22 = (tuple(islice(forms, len(e))) for e in entries)
    return n, ((m11, m12), (m21, m22)), den


def read_family(doc: dict) -> tuple[int, tuple, int]:
    """family_entries of a family document, whose entries are arrays of forms."""
    n, entries = json_n_and_entries(doc)
    entries = [[json_array(f, "a form") for f in e] for e in entries]
    return family_entries(n, entries, *rationals(json_coefficients(n, [f for entry in entries for f in entry])))


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


def modified_wedge(n: int, entries, den: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int, tuple]:
    """(k, positions, nums, d, gcd): the elementary modification of the family entries / den
    (family_entries').  k is the lowest power of lambda at which its wedge has a nonzero
    coordinate; the conic at lambda = 0 is zero but for its triples with a term at lambda^k,
    at these index_pairs positions, nums / d in lowest terms, flattened in that order; gcd
    is their common factor as strata.gcd_coefficients writes it.

    The lambda^k coefficient of the minor over i < j sums, over d1 + d2 = k,
    the minors of the pencil rows of degrees d1 and d2, and a part adds only
    the pairs with a column in each row's support.  Each row starts at its
    lowest nonzero power, so k starts at the sum of the two, and leading zero
    powers cost nothing.  IdenticallyZero when the wedge vanishes for every lambda.
    """
    vanishes = "the wedge of the family vanishes for every lambda"
    if not all(s_entry or t_entry for s_entry, t_entry in entries):
        raise IdenticallyZero(vanishes)  # a row with no form is zero, and nothing in the document bounds n
    zero = (0,) * (n + 1)
    rows = []
    for s_entry, t_entry in entries:
        # per lambda degree, the coefficients of s and of t and the columns where one is nonzero
        degrees = [
            (s, t, [i for i, (a, b) in enumerate(zip(s, t)) if a or b])
            for s, t in zip_longest(s_entry, t_entry, fillvalue=zero)
        ]
        low = next((d for d, (_, _, support) in enumerate(degrees) if support), None)
        if low is None:
            raise IdenticallyZero(vanishes)
        rows.append((low, degrees[low:]))
    (low1, top), (low2, bottom) = rows
    offsets = pair_offsets(n)
    for k in range(len(top) + len(bottom) - 1):
        minors = {}
        for d1 in range(max(0, k - len(bottom) + 1), min(k, len(top) - 1) + 1):
            part = _part_minors(top[d1], bottom[k - d1], offsets)
            if not minors:
                minors = part
                continue
            for p, (x, y, z) in part.items():
                u, v, w = minors.get(p, (0, 0, 0))
                minors[p] = (u + x, v + y, w + z)
        if any(map(any, minors.values())):
            nums, d = lowest_terms(chain.from_iterable(minors.values()), den * den)
            g = gcd_coefficients(minors.values())
            assert g is not None  # impossible by minimality of k
            return low1 + low2 + k, tuple(minors), nums, d, g
    raise IdenticallyZero(vanishes)


def modify_text(doc: dict) -> str:
    """The CLI modify document of a family document, schema_version included:
    the modified conic, k and the residual base points, written from integers."""
    n, entries, den = read_family(doc)
    k, positions, nums, d, gcd = modified_wedge(n, entries, den)
    triples = ['0","0","0'] * comb(n + 1, 2)
    for p, text in zip(positions, triple_texts(nums, d)):
        triples[p] = text
    points = root_points(gcd)[1] if len(gcd) > 1 else ()
    vectors = ",".join(json_strings(vector_strings("rank_drop", s, t)) for s, t in points)
    base = (f'{{"gcd":{json_strings([str(c) for c in gcd])},"gcd_degree":{len(gcd) - 1},'
            f'"rational_points":[{vectors}]}}')
    return (f'{{"conic":{{"coords":{coords_text(n, triples)},"n":{n}}},"k":{k},'
            f'"residual_base":{base},"schema_version":{SCHEMA_VERSION}}}')
