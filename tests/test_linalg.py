import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
import sympy as sp
from hypothesis import given, strategies as st

from moriconic import (
    ALL_ZERO,
    BinaryForm,
    RatMatrix,
    RootKind,
    quadratic_gcd,
    quadratic_root_structure,
)
from moriconic.wire import num_den, rationals

from conftest import form_value, schoolbook_product


def form(*coeffs):
    return BinaryForm(len(coeffs) - 1, coeffs)


S = form(1, 0)          # s
T = form(0, 1)          # t
S2 = form(1, 0, 0)      # s^2
ST = form(0, 1, 0)      # s t
T2 = form(0, 0, 1)      # t^2


class TestRationals:
    def test_parse_forms(self):
        assert num_den("3/4") == (3, 4)
        assert num_den("-7") == (-7, 1)
        assert num_den("6/8") == (6, 8)  # rationals reduces, num_den only reads
        assert num_den(5) == (5, 1)

    def test_rejects_floats_and_junk(self):
        with pytest.raises(TypeError):
            num_den(0.5)
        with pytest.raises(ValueError):
            num_den("1.5")
        with pytest.raises(ValueError):
            num_den("3/0")

    @pytest.mark.parametrize("value, expected", [
        (5, (5, 1)), (-12, (-12, 1)), (Fraction(-6, 4), (-3, 2)), (Fraction(7), (7, 1)),
        ("3/4", (3, 4)), ("-7", (-7, 1)),
    ])
    def test_num_den_reads_exact_values(self, value, expected):
        assert num_den(value) == expected

    @pytest.mark.parametrize("value, detail", [
        (1.5, "exact rational expected, got float"),
        (True, "exact rational expected, got bool"),
        (Decimal(1), "exact rational expected, got Decimal"),
    ])
    def test_num_den_rejects_inexact_values(self, value, detail):
        with pytest.raises(TypeError) as info:
            num_den(value)
        assert str(info.value) == detail

    @pytest.mark.parametrize("text", [
        "3\n", "1/2\n", "-\u0661\u0662", "\u0663", "1/\u0663", "\uff17", " 1", "+1",
    ])
    def test_ascii_digits_only(self, text):
        # the grammar is -?[0-9]+(/[1-9][0-9]*)? and nothing around it
        with pytest.raises(ValueError):
            num_den(text)


# The README grammar of a rational string, read with Fraction: a reference for
# rationals that shares no code with wire.
README_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def reference_rationals(values):
    """(nums, den) in lowest terms, or the detail naming the first malformed string."""
    bad = [v for v in values if not README_RATIONAL.fullmatch(v)]
    if bad:
        return f"malformed rational string: {bad[0]!r}"
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(int(f * den) for f in fracs), den


def read(values):
    try:
        return rationals(values)
    except ValueError as exc:
        return str(exc)


class TestRationalsGrammar:
    # int() or a join of integer strings would accept each of these
    NAMED = ["1\n", "+1", "1_0", " 1", "\u0661", "1,2"]

    @pytest.mark.parametrize("text", NAMED)
    def test_named_strings_rejected(self, text):
        for values in ([text], ["1", text], [text, "1"]):
            assert read(values) == f"malformed rational string: {text!r}"

    def test_every_short_string_reads_like_the_reference(self):
        alphabet = "019-/,\n +_\u0661"
        words = ["".join(p) for k in range(5) for p in product(alphabet, repeat=k)]
        for word in words:
            for values in ([word], ["1", word], [word, "1"]):
                assert read(values) == reference_rationals(values), values


class TestRank:
    def test_identity(self):
        assert RatMatrix([[1, 0], [0, 1]]).rank() == 2

    def test_zero(self):
        assert RatMatrix([[0, 0, 0, 0, 0]] * 3).rank() == 0

    def test_proportional_rows(self):
        assert RatMatrix([[1, 2], [2, 4]]).rank() == 1

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                     min_size=3, max_size=3),
            min_size=2, max_size=4,
        )
    )
    def test_rank_equals_transpose_rank(self, rows):
        m = RatMatrix(rows)
        assert m.rank() == m.transpose().rank()


class TestBinaryFormBasics:
    def test_nominal_degree_kept_by_zero(self):
        z = form(0, 0, 0)
        assert z.degree == 2 and z.is_zero

    def test_mul_degrees_add(self):
        # conftest's product of coefficient tuples, which the tests use on forms
        assert tuple(schoolbook_product(S.coeffs, T.coeffs)) == ST.coeffs
        assert tuple(schoolbook_product(S.coeffs, S.coeffs)) == S2.coeffs

    def test_evaluate(self):
        f = form(1, 0, -2)  # s^2 - 2 t^2
        assert form_value(f.coeffs, 3, 1) == 7
        assert form_value(f.coeffs, Fraction(1, 2), 1) == Fraction(-7, 4)

    def test_normalized(self):
        f = BinaryForm(2, (Fraction(-2, 3), 0, Fraction(4, 3)))
        assert f.normalized() == form(1, 0, -2)


class TestBinaryFormGcd:
    def test_monomials_share_s(self):
        assert quadratic_gcd([(1, 0, 0), (0, 1, 0)]) == S

    def test_common_linear_factor(self):
        # s^2 - t^2 = (s-t)(s+t) and (s+t)^2 share exactly s + t
        assert quadratic_gcd([(1, 0, -1), (1, 2, 1)]) == form(1, 1)

    def test_coprime_quadratics(self):
        assert quadratic_gcd([(1, 0, 1), (1, 0, -1)]).degree == 0

    def test_all_zero_marker(self):
        assert quadratic_gcd([(0, 0, 0), (0, 0, 0)]) is ALL_ZERO

    def test_zero_entries_ignored(self):
        assert quadratic_gcd([(0, 0, 0), (0, 1, 0)]) == ST

    def test_t_power_bookkeeping(self):
        # both vanish at (1:0), so the common factor is t
        assert quadratic_gcd([(0, 1, 0), (0, 0, 1)]) == T

    def test_gcd_divides_inputs_randomized(self, rng):
        s, t = sp.symbols("s t")
        for _ in range(200):
            triples = [
                tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(1, 4))
            ]
            g = quadratic_gcd(triples)
            polys = [a * s**2 + b * s * t + c * t**2 for a, b, c in triples]
            nonzero = [p for p in polys if p != 0]
            if g is ALL_ZERO:
                assert not nonzero
                continue
            expected = sp.Integer(0)
            for p in nonzero:
                expected = sp.gcd(expected, p)
            assert g.degree == sp.Poly(expected, s, t).total_degree()
            g_expr = sum(int(c) * s ** (g.degree - i) * t**i for i, c in enumerate(g.coeffs))
            for p in nonzero:
                assert sp.rem(p, g_expr, s, t) == 0


def substitute(f: BinaryForm, a, b, c, d) -> BinaryForm:
    """f(a s + b t, c s + d t) for degree <= 2 forms, expanded directly."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    if f.degree == 1:
        c0, c1 = f.coeffs
        return BinaryForm(1, (c0 * a + c1 * c, c0 * b + c1 * d))
    c0, c1, c2 = f.coeffs
    return BinaryForm(
        2,
        (
            c0 * a * a + c1 * a * c + c2 * c * c,
            2 * c0 * a * b + c1 * (a * d + b * c) + 2 * c2 * c * d,
            c0 * b * b + c1 * b * d + c2 * d * d,
        ),
    )


class TestRootStructure:
    def test_two_rational_roots(self):
        rs = quadratic_root_structure(ST)
        assert rs.kind is RootKind.TWO_DISTINCT_ROOTS and rs.rational
        assert set(rs.roots) == {(1, 0), (0, 1)}

    def test_double_root_at_t_axis(self):
        rs = quadratic_root_structure(T2)
        assert rs.kind is RootKind.DOUBLE_ROOT
        assert rs.roots == ((1, 0),)

    def test_irrational_pair_with_certificate(self):
        rs = quadratic_root_structure(form(1, 0, -2))
        assert rs.kind is RootKind.TWO_DISTINCT_ROOTS
        assert not rs.rational and rs.roots == ()
        assert rs.discriminant == 8

    def test_complex_pair(self):
        rs = quadratic_root_structure(form(1, 0, 1))
        assert rs.kind is RootKind.TWO_DISTINCT_ROOTS
        assert not rs.rational and rs.discriminant == -4

    def test_degree_zero_and_one(self):
        assert quadratic_root_structure(form(5)).kind is RootKind.NO_ROOT
        rs = quadratic_root_structure(form(2, -3))  # 2s - 3t = 0 at (3/2 : 1)
        assert rs.kind is RootKind.SIMPLE_ROOT
        assert rs.roots == ((Fraction(3, 2), 1),)

    def test_double_root_generic(self):
        rs = quadratic_root_structure(form(1, -4, 4))  # (s - 2t)^2
        assert rs.kind is RootKind.DOUBLE_ROOT
        assert rs.roots == ((2, 1),)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            quadratic_root_structure(form(0, 0, 0))

    def test_invariance_under_coordinate_change(self, rng):
        for _ in range(150):
            deg = rng.randint(1, 2)
            f = BinaryForm(deg, [rng.randint(-5, 5) for _ in range(deg + 1)])
            if f.is_zero:
                continue
            while True:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d - b * c != 0:
                    break
            g = substitute(f, a, b, c, d)
            rf, rg = quadratic_root_structure(f), quadratic_root_structure(g)
            assert rf.kind == rg.kind
            assert rf.rational == rg.rational

            def canon(p, q):
                return (p / q, Fraction(1)) if q != 0 else (Fraction(1), Fraction(0))

            # a root (u, v) of g maps to the root (au + bv, cu + dv) of f
            mapped = {canon(a * u + b * v, c * u + d * v) for (u, v) in rg.roots}
            assert mapped == set(rf.roots)
