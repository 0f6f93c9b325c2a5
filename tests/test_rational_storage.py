"""Forms, modules, matrices, conics and envelopes store integers over one denominator;
every operation must agree with the same computation on Fraction tuples."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from moriconic import (
    BinaryForm,
    Envelope,
    KroneckerModule,
    LambdaFamily,
    LinearForm,
    PluckerConic,
    RatMatrix,
    det_quadric,
    quadratic_root_structure,
)
from moriconic.wire import rat_strings

from conftest import bareiss, ref_root_structure, scaled_module, schoolbook_product, written

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

# small numerators, and numerators of 200 bits and more
NUMERATORS = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda sign, m: sign * m, st.sampled_from([1, -1]), st.integers(2**200, 2**230)),
)
DENOMINATORS = st.one_of(st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9]), st.integers(1, 2**70))


@st.composite
def rational_input(draw):
    """(an input the constructors accept, its value): an int, a Fraction, or a
    'p/q' string that need not be in lowest terms."""
    value = Fraction(draw(NUMERATORS), draw(DENOMINATORS))
    kind = draw(st.sampled_from(["exact", "string", "unreduced"]))
    if kind == "exact":
        return (value.numerator if value.denominator == 1 else value), value
    k = 1 if kind == "string" else draw(st.integers(2, 12))
    return f"{value.numerator * k}/{value.denominator * k}", value


def vectors(size: int):
    """(inputs, Fraction values) of one length, zero vectors included."""
    zero = st.just(([0] * size, (Fraction(0),) * size))
    drawn = st.lists(rational_input(), min_size=size, max_size=size).map(
        lambda pairs: ([p for p, _ in pairs], tuple(v for _, v in pairs))
    )
    return st.one_of(zero, drawn, drawn, drawn)


def rewrite(values):
    """The same values as unreduced strings, a second presentation of one vector."""
    return [f"{3 * v.numerator}/{3 * v.denominator}" for v in values]


def strings(values):
    return [str(v) for v in values]


def assert_lowest_terms(obj):
    assert obj.den > 0 and gcd(obj.den, *obj.nums) == 1


def ref_normalized(values):
    if not any(values):
        return values
    d = lcm(*(v.denominator for v in values))
    ints = [int(v * d) for v in values]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


def ref_product(xs, ys):
    out = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] += a * b
    return tuple(out)


def check_equality(a, b, ref_a, ref_b):
    assert (a == b) is (ref_a == ref_b)
    if a == b:
        assert hash(a) == hash(b)


@SETTINGS
@given(st.integers(0, 3).flatmap(lambda d: st.tuples(vectors(d + 1), vectors(d + 1), vectors(2))),
       rational_input())
def test_binary_form_matches_fraction_arithmetic(pair, scalar):
    (xs_in, xs), (ys_in, ys), (zs_in, zs) = pair
    _, c = scalar
    degree = len(xs) - 1
    f, g, h = BinaryForm(degree, xs_in), BinaryForm(degree, ys_in), BinaryForm(1, zs_in)
    for form, ref in ((f, xs), (g, ys), (h, zs)):
        assert_lowest_terms(form)
        assert form.coeffs == ref and all(type(v) is Fraction for v in form.coeffs)
        assert form.to_json() == strings(ref)
    check_equality(f, g, xs, ys)
    check_equality(f, BinaryForm(degree, rewrite(xs)), xs, xs)
    # a sum, a product and a multiple stored from unreduced ints over a product
    # of denominators, against the same values on Fractions
    p, q = c.numerator, c.denominator
    for result, ref in (
        (BinaryForm.from_ints([a * g.den + b * f.den for a, b in zip(f.nums, g.nums)], f.den * g.den),
         tuple(a + b for a, b in zip(xs, ys))),
        (BinaryForm.from_ints(schoolbook_product(f.nums, h.nums), f.den * h.den), ref_product(xs, zs)),
        (BinaryForm.from_ints([p * x for x in f.nums], f.den * q), tuple(c * v for v in xs)),
        (f.normalized(), ref_normalized(xs)),
    ):
        assert result.coeffs == ref and result.to_json() == strings(ref)
        assert_lowest_terms(result)


@SETTINGS
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(vectors(n + 1), vectors(n + 1))),
       rational_input())
def test_linear_form_matches_fraction_arithmetic(pair, scalar):
    (xs_in, xs), (ys_in, ys) = pair
    c_in, c = scalar
    n = len(xs) - 1
    f, g = LinearForm(n, xs_in), LinearForm(n, ys_in)
    assert f.coeffs == xs and f.to_json() == strings(xs)
    check_equality(f, g, xs, ys)
    check_equality(f, LinearForm(n, rewrite(xs)), xs, xs)
    assert_lowest_terms(f)
    family = LambdaFamily(n, [[[f, g], [g]], [[], [f, g, f]]])
    assert family.to_json() == {
        "n": n, "matrix": [[[strings(xs), strings(ys)], [strings(ys)]],
                           [[], [strings(xs), strings(ys), strings(xs)]]],
    }
    if any(xs) or any(ys):
        M = family.specialize(c_in)
        assert [e.coeffs for e in (M.m11, M.m12, M.m21, M.m22)] == [
            tuple(a + c * b for a, b in zip(xs, ys)),
            ys,
            (0,) * (n + 1),
            tuple(a + c * b + c * c * a for a, b in zip(xs, ys)),
        ]


def ref_transform(entries, a, b):
    """A M B^{-1} on Fraction coefficient tuples, entry by entry."""
    det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    inv = ((b[1][1] / det, -b[0][1] / det), (-b[1][0] / det, b[0][0] / det))
    size = len(entries[0][0])
    out = []
    for i in range(2):
        for j in range(2):
            out.append(tuple(
                sum(a[i][k] * entries[k][m][x] * inv[m][j] for k in range(2) for m in range(2))
                for x in range(size)
            ))
    return out


@SETTINGS
@given(
    st.integers(2, 3).flatmap(lambda n: st.lists(vectors(n + 1), min_size=4, max_size=4)),
    st.lists(rational_input(), min_size=4, max_size=4),
    st.lists(rational_input(), min_size=4, max_size=4),
)
def test_module_transform_matches_fraction_arithmetic(forms, a_entries, b_entries):
    values = [v for _, v in forms]
    b = ((b_entries[0][1], b_entries[1][1]), (b_entries[2][1], b_entries[3][1]))
    assume(any(any(v) for v in values) and b[0][0] * b[1][1] != b[0][1] * b[1][0])
    n = len(values[0]) - 1
    M = KroneckerModule(n, *(LinearForm(n, inputs) for inputs, _ in forms))
    a = ((a_entries[0][1], a_entries[1][1]), (a_entries[2][1], a_entries[3][1]))
    a_in = [[a_entries[0][0], a_entries[1][0]], [a_entries[2][0], a_entries[3][0]]]
    b_in = [[b_entries[0][0], b_entries[1][0]], [b_entries[2][0], b_entries[3][0]]]
    expected = ref_transform(((values[0], values[1]), (values[2], values[3])), a, b)
    assume(any(any(v) for v in expected))
    assert_lowest_terms(M)
    identity = [[1, 0], [0, 1]]
    unreduced = {"n": n, "matrix": [[rewrite(values[0]), rewrite(values[1])],
                                    [rewrite(values[2]), rewrite(values[3])]]}
    for other in (
        KroneckerModule(n, *(LinearForm(n, rewrite(v)) for v in values)),
        KroneckerModule.from_json(unreduced),
        scaled_module(M, 1),
        M.transform(identity, identity),
    ):
        assert other == M and hash(other) == hash(M)
        assert (other.nums, other.den) == (M.nums, M.den)
    # all-integer documents are read in one pass, with no per-entry parse
    den = lcm(*(v.denominator for vals in values for v in vals))
    ints = [[str(int(v * den)) for v in vals] for vals in values]
    module_doc = {"n": n, "matrix": [ints[:2], ints[2:]]}
    family_doc = {"n": n, "matrix": [[[ints[0], ints[1]], []], [[ints[2]], [ints[3], ints[0]]]]}
    with mock.patch("moriconic.wire.num_den", side_effect=AssertionError("num_den called")):
        module = KroneckerModule.from_json(module_doc)
        family = LambdaFamily.from_json(family_doc)
    assert module == scaled_module(M, den) and module.to_json() == module_doc
    assert family.to_json() == family_doc
    moved = M.transform(a_in, b_in)
    got = (moved.m11, moved.m12, moved.m21, moved.m22)
    assert [f.coeffs for f in got] == expected
    assert moved.to_json() == {
        "n": n,
        "matrix": [[strings(expected[0]), strings(expected[1])],
                   [strings(expected[2]), strings(expected[3])]],
    }
    for f in got:
        assert_lowest_terms(f)
    c_in, c = a_entries[0]
    if c:
        assert M.transform([[c_in, 0], [0, c_in]], identity).to_json()["matrix"] == [
            [strings(c * v for v in values[0]), strings(c * v for v in values[1])],
            [strings(c * v for v in values[2]), strings(c * v for v in values[3])],
        ]


@SETTINGS
@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(vectors(3), min_size=(n + 1) * n // 2, max_size=(n + 1) * n // 2)))
def test_conic_and_envelope_match_fraction_values(triples):
    n = 2 if len(triples) == 3 else 3
    pairs = list(combinations(range(n + 1), 2))
    coords = {pair: BinaryForm(2, inputs) for pair, (inputs, _) in zip(pairs, triples)}
    c = PluckerConic(n, coords)
    assert_lowest_terms(c)
    assert {pair: f.coeffs for pair, f in c.coords.items()} == {
        pair: values for pair, (_, values) in zip(pairs, triples)
    }
    assert written(c) == {
        "n": n,
        "coords": {f"{i},{j}": strings(values) for (i, j), (_, values) in zip(pairs, triples)},
    }
    same = PluckerConic(n, {pair: BinaryForm(2, rewrite(f.coeffs)) for pair, f in coords.items()})
    flat = [v for _, values in triples for v in values]
    den = lcm(*(v.denominator for v in flat))
    for other in (
        same,
        PluckerConic.from_json({"n": n, "coords": {f"{i},{j}": rewrite(values)
                                                   for (i, j), (_, values) in zip(pairs, triples)}}),
        PluckerConic.from_ints(n, [int(2 * v * den) for v in flat], 2 * den),
    ):
        assert other == c and hash(other) == hash(c)
    rows = [values for _, values in triples[:2]]
    env = Envelope(len(rows), [rewrite(r) for r in rows])
    assert_lowest_terms(Envelope(len(rows), rows))
    assert env.basis == tuple(rows)
    assert written(env) == {"dim": len(rows), "basis": [strings(r) for r in rows]}
    check_equality(env, Envelope(len(rows), rows), rows, rows)


def fraction_rows(values, cols):
    return tuple(tuple(values[i:i + cols]) for i in range(0, len(values), cols))


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_storage_matches_fraction_values(rows, cols, data):
    inputs, values = data.draw(vectors(rows * cols))
    ref = fraction_rows(values, cols)
    m = RatMatrix(fraction_rows(inputs, cols))
    assert_lowest_terms(m)
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == ref and all(type(v) is Fraction for row in m.entries for v in row)
    assert m.json_rows() == [strings(row) for row in ref]
    for other in (
        RatMatrix(ref),
        RatMatrix(fraction_rows([v.numerator if v.denominator == 1 else v for v in values], cols)),
        RatMatrix(fraction_rows(rewrite(values), cols)),
    ):
        assert other == m and hash(other) == hash(m)
    assert m.transpose().entries == tuple(zip(*ref))
    assert m.transpose().transpose() == m
    assert m.is_zero is not any(values)
    if rows != cols:
        # the same flat entries in the transposed shape are another matrix
        assert RatMatrix(fraction_rows(values, rows)) != m


# denominators with many divisors, so the numerators fall in many gcd classes
WIRE_DENOMINATORS = st.one_of(
    st.sampled_from([1, 720, 5040, 2**64, 3**41 * 720]),
    st.integers(1, 10**6),
    st.integers(2**64, 2**90),
)
WIRE_NUMERATORS = st.one_of(
    st.just(0),
    st.builds(lambda d, m: d * m, st.sampled_from([1, 2, 6, 8, 9, 45, 720, 2**64, 3**41]),
              st.integers(-2**80, 2**80)),
)


@SETTINGS
@given(WIRE_DENOMINATORS, st.lists(WIRE_NUMERATORS, max_size=30), st.lists(st.integers(0, 40), max_size=60))
@example(1, [5, -5, 2**70, -(2**70)], [0, 1, 1, 2, 9, 3, 3, 0, 9])
@example(720, [360, -720, 1, 720 * 2**64], [0, 9, 1, 2, 3, 1, 0, 2, 9])
def test_rat_strings_match_str_of_fraction(den, pool, picks):
    # nums are drawn from the pool, so values repeat; a pick past its end is a zero
    nums = [pool[p] if p < len(pool) else 0 for p in picks]
    strings = [str(Fraction(x, den)) for x in nums]
    assert rat_strings(nums, den) == strings
    assert rat_strings(iter(nums), den) == strings


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_zero_width_matrix_keeps_its_rows(rows):
    m = RatMatrix([[]] * rows)
    assert (m.rows, m.cols) == (rows, 0)
    assert m.int_rows() == [()] * rows
    assert m.json_rows() == [[]] * rows
    assert m.entries == ((),) * rows


@SETTINGS
@given(st.integers(2, 3).flatmap(lambda n: st.lists(vectors(n + 1), min_size=4, max_size=4)))
def test_module_is_a_rat_matrix_of_its_four_entries(forms):
    assume(any(any(values) for _, values in forms))
    n = len(forms[0][1]) - 1
    M = KroneckerModule(n, *(LinearForm(n, inputs) for inputs, _ in forms))
    assert isinstance(M, RatMatrix)
    assert (M.rows, M.cols) == (4, n + 1)
    (m11, m12), (m21, m22) = M.to_json()["matrix"]
    assert M.json_rows() == [m11, m12, m21, m22]
    assert M.rank() == len(bareiss(M.int_rows())[1])
    assert M.rank() == RatMatrix([values for _, values in forms]).rank()


@SETTINGS
@given(st.integers(2, 3).flatmap(lambda n: st.lists(vectors(n + 1), min_size=4, max_size=4)))
def test_det_quadric_matches_fraction_gram(forms):
    a, b, c, d = (values for _, values in forms)
    assume(any(any(v) for v in (a, b, c, d)))
    n = len(a) - 1
    M = KroneckerModule(n, *(LinearForm(n, inputs) for inputs, _ in forms))
    gram = det_quadric(M).gram
    assert_lowest_terms(gram)
    # the Gram matrix of a*d - b*c: half the coefficient of x_i x_j off the diagonal
    assert gram.entries == tuple(
        tuple((a[i] * d[j] + a[j] * d[i] - b[i] * c[j] - b[j] * c[i]) / 2 for j in range(n + 1))
        for i in range(n + 1)
    )


SMALL = st.integers(-5, 5)


@st.composite
def root_forms(draw):
    """Coefficients of a nonzero form of degree <= 2 times a rational with a
    large denominator: random ones, and products of linear forms, which give
    zero (a square) and square (two distinct factors) discriminants."""
    shape = draw(st.sampled_from(["random", "random", "square", "product", "t_factor"]))
    if shape == "random":
        coeffs = draw(st.lists(SMALL, min_size=1, max_size=3))
    elif shape == "t_factor":
        coeffs = [0, draw(SMALL), draw(SMALL)]
    else:
        a, b = draw(SMALL), draw(SMALL)
        c, d = (a, b) if shape == "square" else (draw(SMALL), draw(SMALL))
        coeffs = [a * c, a * d + b * c, b * d]
    assume(any(coeffs))
    scale = Fraction(draw(NUMERATORS.filter(bool)), draw(DENOMINATORS))
    return [scale * x for x in coeffs]


@SETTINGS
@given(root_forms())
@example([Fraction(1, 6), Fraction(-5, 6), Fraction(1)])  # (s - 2t)(s - 3t) / 6: disc 1/36
@example([Fraction(1, 4), Fraction(1), Fraction(1)])  # (s + 2t)^2 / 4: disc 0
@example([Fraction(0), Fraction(2, 3), Fraction(1, 9)])  # t (6s + t) / 9
@example([Fraction(0), Fraction(0), Fraction(5, 7)])  # a double root at (1 : 0)
@example([Fraction(3, 10), Fraction(0), Fraction(7, 10)])  # no real root: disc -21/25
@example([Fraction(1, 2), Fraction(1, 2)])
@example([Fraction(0), Fraction(1, 3)])
@example([Fraction(-2, 9)])
def test_root_structure_matches_fraction_reference(coeffs):
    f = BinaryForm(len(coeffs) - 1, [str(c) for c in coeffs])
    got = quadratic_root_structure(f)
    assert got == ref_root_structure(coeffs)
    assert all(type(x) is Fraction for root in got.roots for x in root)
    assert got.discriminant is None or type(got.discriminant) is Fraction
