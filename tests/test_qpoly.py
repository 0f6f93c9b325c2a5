import pytest
from hypothesis import example, given, settings, strategies as st

from moriconic import NotDivisible, QPoly

from conftest import (
    canonical,
    evaluate,
    exact_div,
    negated,
    one_minus_q_pow,
    schoolbook_product,
    written,
)


def P(*coeffs):
    return QPoly(coeffs)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_polynomial_is_empty(self):
        assert P(0, 0, 0).coeffs == ()
        assert P().is_zero

    def test_degree_of_zero_is_none(self):
        assert P().degree is None
        assert P(5).degree == 0
        assert P(0, 0, 3).degree == 2

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            QPoly([1.5])
        with pytest.raises(TypeError):
            QPoly([True])

    def test_int_equality(self):
        assert P(2) == 2
        assert P() == 0

    def test_truth_is_nonzero(self):
        assert P(0, 1) and P(-1)
        assert not P() and not P(0, 0)

    @pytest.mark.parametrize("other", [0.5, "1", None, True])
    def test_other_operands_are_refused(self, other):
        # each operation returns NotImplemented, so Python raises or compares by identity
        assert P(1) != other and not P(1) == other
        for op in (lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: b * a):
            with pytest.raises(TypeError):
                op(P(1), other)

    @pytest.mark.parametrize("value", [3, -1, 0, 2**70])
    def test_constant_hashes_as_its_int(self, value):
        # equal values hash alike, so a constant finds its int's dict entry and set member
        p = P(value)
        assert hash(p) == hash(value)
        assert {value: "x"}.get(p) == "x"
        assert len({p, value}) == 1

    def test_equal_polynomials_hash_alike(self):
        assert hash(P(1, 2, 0)) == hash(QPoly.from_ints([1, 2])) == hash(P(1, 2))
        assert len({P(0, 1), P(0, 1, 0), P(1, 0)}) == 2
        assert P(1).__eq__(True) is NotImplemented  # a bool is not a coefficient


class TestAdd:
    def test_cancellation(self):
        assert P(1, 1) + P(1, -1) == P(2)

    def test_identity(self):
        p = P(3, 0, 7)
        assert p + P() == p

    def test_plain_sum(self):
        assert P(1, 1, 1) + P(0, 0, 1) == P(1, 1, 2)


class TestMul:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_identity(self):
        p = P(2, 0, -3, 1)
        assert p * P(1) == p

    def test_double_symmetroid_product(self):
        # (q^2+1)(q^7+q^6+q^2+q+1), expanded by hand convolution
        lhs = P(1, 0, 1) * P(1, 1, 1, 0, 0, 0, 1, 1)
        assert lhs == P(1, 1, 2, 1, 1, 0, 1, 1, 1, 1)


class TestExactDiv:
    """The reference long division of conftest.exact_div, and QPoly products against it."""

    def test_geometric_series(self):
        assert exact_div(one_minus_q_pow(3), one_minus_q_pow(1)) == P(1, 1, 1).coeffs

    def test_self_division(self):
        p = P(3, -1, 4)
        assert exact_div(p.coeffs, p.coeffs) == (1,)

    def test_gaussian_binomial_4_2(self):
        num = QPoly(one_minus_q_pow(4)) * QPoly(one_minus_q_pow(3))
        den = QPoly(one_minus_q_pow(1)) * QPoly(one_minus_q_pow(2))
        assert exact_div(num.coeffs, den.coeffs) == P(1, 1, 2, 1, 1).coeffs

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible):
            exact_div(P(1, 1).coeffs, P(0, 1).coeffs)

    def test_non_integer_quotient_raises(self):
        with pytest.raises(NotDivisible):
            exact_div(P(0, 1).coeffs, P(0, 2).coeffs)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P(1).coeffs, ())

    def test_zero_numerator(self):
        assert exact_div((), P(1, 1).coeffs) == ()


class TestSubstitution:
    def test_square(self):
        assert P(1, 1).subst_q_power(2) == P(1, 0, 1)

    def test_identity(self):
        p = P(1, 2, 3)
        assert p.subst_q_power(1) == p

    def test_projective_plane(self):
        assert P(1, 1, 1).subst_q_power(2) == P(1, 0, 1, 0, 1)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            P(1, 1).subst_q_power(0)


class TestEvalAtOne:
    """conftest.evaluate at 1, the sum of the coefficients, on package products."""

    def test_projective_plane_euler(self):
        assert evaluate(P(1, 1, 1).coeffs, 1) == 3
        assert evaluate((P(1, 1) * P(1, 1, 1)).coeffs, 1) == 6

    def test_zero(self):
        assert evaluate(P().coeffs, 1) == 0
        assert evaluate((P(1, 1) - P(1, 1)).coeffs, 1) == 0

    def test_grassmannian_2_4_points(self):
        assert evaluate(P(1, 1, 2, 1, 1).coeffs, 1) == 6


class TestSerialization:
    def test_to_json(self):
        assert written(P(1, 1, 2, 1, 1)) == ["1", "1", "2", "1", "1"]
        assert P(1, -1, 0, 12345678901234567890).json_text() == '["1","-1","0","12345678901234567890"]'
        assert written(P()) == [] and P().json_text() == "[]"
        # repeated coefficients share one string each, and come out in place
        assert P(0, 5, -5, 5, 0, 0, -5, 1).json_text() == '["0","5","-5","5","0","0","-5","1"]'

    def test_round_trip(self):
        p = P(-3, 0, 12345678901234567890)
        assert QPoly.from_json(written(p)) == p

    @pytest.mark.parametrize("data", [
        [1.5, True, "7"],
        "12",
        ["1.0"],
        [" 7"],
        [None],
        {"0": "1"},
    ])
    def test_from_json_rejects_inexact_input(self, data):
        with pytest.raises(ValueError):
            QPoly.from_json(data)

    @pytest.mark.parametrize("digits", ["\u0663", "-\u0661\u0662", "7\n", "\uff17"])
    def test_from_json_reads_ascii_digits_only(self, digits):
        # Arabic-Indic and fullwidth digits, and a trailing newline
        with pytest.raises(ValueError):
            QPoly.from_json(["1", digits])


small_polys = st.lists(st.integers(min_value=-30, max_value=30), max_size=7).map(QPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


class TestRingProperties:
    @given(small_polys, small_polys, small_polys)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(small_polys, nonzero_polys)
    def test_mul_div_round_trip(self, a, b):
        assert exact_div((a * b).coeffs, b.coeffs) == a.coeffs

    @given(small_polys, st.integers(1, 4), st.integers(1, 4))
    def test_subst_composition(self, p, j, k):
        assert p.subst_q_power(j).subst_q_power(k) == p.subst_q_power(j * k)

    @given(small_polys)
    def test_module_level_wrappers(self, p):
        # evaluation at 1 is a ring map: it checks the products too
        assert p + p == 2 * p
        assert p * P(1) == p
        assert p.subst_q_power(1) == p
        assert evaluate((p * p).coeffs, 1) == evaluate(p.coeffs, 1) ** 2
        if not p.is_zero:
            assert exact_div(p.coeffs, p.coeffs) == (1,)


def coefficientwise(op, a, b):
    width = max(len(a), len(b))
    a, b = list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))
    return [op(a[i], b[i]) for i in range(width)]


# small, byte-boundary and 200-bit-plus magnitudes of either sign
coefficients = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([127, 128, 255, 256, -127, -128, -255, -256, 2**64 - 1, -(2**64)]),
    st.integers(-(2**300), 2**300),
)
coefficient_lists = st.one_of(
    st.lists(coefficients, max_size=4),
    st.lists(coefficients, min_size=20, max_size=48),
)


class TestArithmeticAgainstSchoolbook:
    """__mul__, __add__ and __sub__ against arithmetic written out here."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(coefficient_lists, coefficient_lists)
    @example([], [])
    @example([], [5, -1])
    @example([0, 0], [3])
    @example([7], [-9])
    @example([255], [1])  # a product coefficient at a byte boundary needs the sign bit
    @example([-255], [1])
    @example([11, 11], [11, 11])
    @example([2**250, -(2**250)], [-1] * 300)
    @example([1, 1], [1, -1])
    def test_against_schoolbook(self, a, b):
        p, r = QPoly(a), QPoly(b)
        assert (p * r).coeffs == canonical(schoolbook_product(a, b))
        assert (p * p).coeffs == canonical(schoolbook_product(a, a))
        assert (p + r).coeffs == canonical(coefficientwise(lambda x, y: x + y, a, b))
        assert (p - r).coeffs == canonical(coefficientwise(lambda x, y: x - y, a, b))
        # cancellation down to zero
        assert (p - p).coeffs == () and (p + QPoly(negated(a))).coeffs == ()
        assert (p * r - r * p).coeffs == ()
