"""The integer Pluecker conic of a module: its wedge, envelope and degree.

The 2x2 minors of the pencil rows s * m11 + t * m12 and s * m21 + t * m22,
one binary quadratic per pair i < j in {0..n}, are the conic's coordinates;
the span of their coefficient slices is its envelope, and 2 minus the degree
of their gcd its degree.  Matrices stay unreduced integers over one
denominator, since the text writers reduce each entry as str(Fraction) would.
conic_text writes a conic request's document, loading only this module,
strata, packing and wire; conic builds its records from the same routines.
"""

from __future__ import annotations

from itertools import chain
from operator import mul, neg
from typing import Sequence

from .errors import ZeroConic
from .packing import pack_slots, read_slots, slot_bytes, slot_width
from .strata import cross, gcd_coefficients, read_module, span_basis
from .wire import SCHEMA_VERSION, JsonText, json_strings, rat_strings


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


def coords_text(n: int, nums: Sequence[int], den: int) -> JsonText:
    """The coords object of the triples nums / den as wire text, its keys in
    sorted order.  "," sorts below every digit, so "i,j" sorts by str(i),
    then by str(j): i, then j > i, run through sorted(range(n + 1), key=str).
    """
    triples = list(map('","'.join, zip(*[iter(rat_strings(nums, den))] * 3)))
    names = list(map(str, range(n + 1)))
    lex = sorted(range(n + 1), key=str)
    offsets = pair_offsets(n)
    members = []
    for i in lex:
        head, base = f'"{names[i]},', offsets[i]
        members += [f'{head}{names[j]}":["{triples[base + j]}"]' for j in lex if j > i]
    return JsonText("{" + ",".join(members) + "}")


def envelope_text(nums: Sequence[int], den: int, dim: int) -> JsonText:
    """The envelope object of the dim basis rows nums / den, as wire text."""
    strings, size = rat_strings(nums, den), len(nums) // max(dim, 1)
    rows = [json_strings(strings[i * size:(i + 1) * size]) for i in range(dim)]
    return JsonText(f'{{"basis":[{",".join(rows)}],"dim":{dim}}}')


def conic_text(doc: dict) -> JsonText:
    """The CLI conic document of a module document, schema_version included:
    its coords, envelope and degree, written from integers."""
    n, nums, den = read_module(doc)
    minors, bound = wedge(*zip(*[iter(nums)] * (n + 1)))
    coords = coords_text(n, minors, den * den)
    basis = span_basis(zip(*[iter(minors)] * 3))
    env = envelope_text(*envelope_rows(minors, basis, bound))
    return JsonText(f'{{"coords":{coords},"degree":{degree(basis)},"envelope":{env},'
                    f'"n":{n},"schema_version":{SCHEMA_VERSION}}}')
