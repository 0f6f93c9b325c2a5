from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from moriconic import (
    Grassmannian,
    KontsevichProj,
    MbarGr,
    MP24m2,
    NonIntegral,
    NotDivisible,
    ProjSpace,
    QPoly,
    Sym2Of,
    T4,
    grassmannian_poincare,
    kontsevich_proj_poincare,
    mbar_gr_poincare,
    mp2_4m2_poincare,
    poincare,
    proj_space_poincare,
    sym2_poincare,
    t4_poincare,
)
from moriconic.motivic import _DEN, _TERMS, _layout, _numerator, _products, _ratio

from conftest import (
    canonical,
    evaluate,
    exact_div,
    is_palindromic,
    monomial,
    one_minus_q_pow,
    schoolbook_product,
)

# Reference factored forms of the double-symmetroid polynomials, stored
# verbatim and expanded at test time.
T4_FACTORS = {
    3: [(1, 1, 1, 0, 0, 0, 1, 1), (1, 0, 1)],
    4: [(1, -1, 1, 0, -1, 1, -1, 1), (1, 1, 1, 1, 1), (1, 1, 1)],
    5: [(1, 1, 1, 1, 1, 0, 0, -1, -1, 0, 1, 1, 1, 1), (1, 0, 1, 0, 1)],
    6: [(1, 0, 1, 0, 1, 0, 0, 0, -1, 0, -1, 1, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1, 1)],
}

# Reference 18-coefficient polynomial for the 4m+2 sheaf moduli on the plane.
MP2_COEFFS = (1, 2, 5, 9, 12, 12, 12, 10, 10, 9, 10, 10, 11, 11, 9, 5, 2, 1)

# Oracle expansions, frozen from an independent computer-algebra run.
MBAR_GR_3 = (1, 3, 7, 11, 14, 14, 11, 7, 3, 1)
MBAR_GR_4 = (1, 3, 8, 15, 24, 32, 37, 37, 32, 24, 15, 8, 3, 1)
KONTSEVICH_4 = (1, 2, 4, 5, 6, 5, 4, 2, 1)


def expand_factors(factors) -> QPoly:
    out = QPoly([1])
    for f in factors:
        out = out * QPoly(f)
    return out


def omq(k: int) -> QPoly:
    """1 - q^k."""
    return QPoly(one_minus_q_pow(k))


def product(*polys) -> QPoly:
    out = QPoly([1])
    for p in polys:
        out = out * p
    return out


def divide(num: QPoly, den: QPoly) -> QPoly:
    """num / den by the long division of conftest.exact_div."""
    return QPoly(exact_div(num.coeffs, den.coeffs))


def bracket(n: int) -> QPoly:
    """(1+q^(n+1))(1+q^3) - q(1+q)(q^2+q^(n-1)), the extra factor of P(MbarGr(n))."""
    def q(k):
        return QPoly(monomial(k))

    one = QPoly([1])
    return (one + q(n + 1)) * (one + q(3)) - q(1) * (one + q(1)) * (q(2) + q(n - 1))


def dense_mbar_gr(n: int) -> QPoly:
    """P(MbarGr(n)) with the bracket, dense numerator and denominator."""
    return divide(
        product(bracket(n), omq(n + 1), omq(n), omq(n - 1)),
        product(omq(1), omq(1), omq(1), omq(2), omq(2)),
    )


def dense_kontsevich(n: int) -> QPoly:
    """P(MbarP(n)), dense numerator and denominator."""
    return divide(product(omq(n + 1), omq(n), omq(n - 1)), product(omq(1), omq(1), omq(2)))


DENSE_SIZES = [*range(3, 61), 200]


def dense_t4(n: int) -> QPoly:
    """P(T4(n)) by the excision formula with dense numerators and denominators:
    P(MbarGr(n)) - (P(MbarP(n)) - 1) P(P^n) - (P(P^(n-2))^2 - 1) (P(Sym^2 P^n) - P(P^n))."""
    total = dense_mbar_gr(n)
    fiber1 = dense_kontsevich(n)
    ppn = divide(omq(n + 1), omq(1))
    pairs = sym2_poincare(ppn) - ppn
    small = divide(omq(n - 1), omq(1))
    return total - (fiber1 - 1) * ppn - (small * small - 1) * pairs


class TestProjSpace:
    def test_point(self):
        assert proj_space_poincare(0) == QPoly([1])

    def test_plane(self):
        assert proj_space_poincare(2) == QPoly([1, 1, 1])

    def test_p5(self):
        assert proj_space_poincare(5) == QPoly([1] * 6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            proj_space_poincare(-1)

    def test_matches_dense_formula(self):
        for n in DENSE_SIZES:
            assert proj_space_poincare(n) == divide(omq(n + 1), omq(1)), n


class TestGrassmannian:
    def test_gr_2_4(self):
        assert grassmannian_poincare(2, 4) == QPoly([1, 1, 2, 1, 1])

    def test_trivial_cases(self):
        assert grassmannian_poincare(0, 7) == QPoly([1])
        assert grassmannian_poincare(5, 5) == QPoly([1])

    def test_lines_are_projective_space(self):
        for big_n in (2, 3, 6):
            assert grassmannian_poincare(1, big_n) == proj_space_poincare(big_n - 1)

    def test_duality_and_palindromicity(self):
        for k, big_n in ((2, 5), (3, 7), (2, 6)):
            p = grassmannian_poincare(k, big_n)
            assert p == grassmannian_poincare(big_n - k, big_n)
            assert is_palindromic(p.coeffs)

    def test_q_pascal_rule(self):
        # (N choose k)_q = (N-1 choose k-1)_q + q^k (N-1 choose k)_q, for
        # every k on both sides of N / 2
        row = [QPoly([1])]
        for big_n in range(1, 13):
            prev = row + [QPoly()]
            row = [QPoly([1])] + [
                prev[k - 1] + QPoly(monomial(k)) * prev[k] for k in range(1, big_n + 1)
            ]
            assert [grassmannian_poincare(k, big_n) for k in range(big_n + 1)] == row

    def test_point_count(self):
        assert evaluate(grassmannian_poincare(2, 4).coeffs, 1) == 6

    def test_bad_range(self):
        with pytest.raises(ValueError):
            grassmannian_poincare(3, 2)


class TestKontsevichProj:
    def test_maps_to_line(self):
        assert kontsevich_proj_poincare(2) == QPoly([1, 1, 1])

    def test_maps_to_plane(self):
        expected = QPoly([1, 1, 1, 1]) * QPoly([1, 1, 1])
        assert kontsevich_proj_poincare(3) == expected

    def test_maps_to_p3_frozen(self):
        assert kontsevich_proj_poincare(4) == QPoly(KONTSEVICH_4)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            kontsevich_proj_poincare(1)

    def test_matches_dense_formula(self):
        for n in DENSE_SIZES:
            assert kontsevich_proj_poincare(n) == dense_kontsevich(n), n


class TestMbarGr:
    def test_n3_frozen(self):
        assert mbar_gr_poincare(3) == QPoly(MBAR_GR_3)

    def test_n4_frozen(self):
        assert mbar_gr_poincare(4) == QPoly(MBAR_GR_4)

    def test_degree_is_dimension(self):
        for n in range(3, 13):
            assert mbar_gr_poincare(n).degree == 4 * n - 3

    def test_palindromic(self):
        for n in range(3, 13):
            assert is_palindromic(mbar_gr_poincare(n).coeffs)

    def test_euler_characteristic_positive(self):
        assert evaluate(mbar_gr_poincare(3).coeffs, 1) == 72

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            mbar_gr_poincare(2)

    def test_bracket_factors(self):
        for n in range(3, 41):
            assert bracket(n) == omq(4) * omq(n), n

    def test_matches_dense_formula(self):
        for n in DENSE_SIZES:
            assert mbar_gr_poincare(n) == dense_mbar_gr(n), n


class TestSym2:
    def test_line(self):
        assert sym2_poincare(QPoly([1, 1])) == QPoly([1, 1, 1])

    def test_constant(self):
        assert sym2_poincare(QPoly([1])) == QPoly([1])

    def test_plane(self):
        assert sym2_poincare(QPoly([1, 1, 1])) == QPoly([1, 1, 2, 1, 1])

    def test_projective_spaces_stay_integral(self):
        # x^2 = x mod 2 makes the half always integral on integer input; the
        # NonIntegral guard stays as a tripwire
        for n in range(8):
            sym2_poincare(proj_space_poincare(n))

    # with p(q^2) replaced by p, the doubled sum is p^2 + p; None marks a
    # refusal
    @pytest.mark.parametrize("coeffs, half", [
        ([1, 1], None),  # 2 + 3q + q^2
        ([0, 1], None),  # q + q^2
        ([2, 4], [3, 10, 8]),  # 6 + 20q + 16q^2
        ([1, 0, 2], [1, 0, 3, 0, 2]),  # 2 + 6q^2 + 4q^4
        ([3], [6]),
        ([], []),
    ])
    def test_integrality_tripwire(self, monkeypatch, coeffs, half):
        monkeypatch.setattr(QPoly, "subst_q_power", lambda p, k: p)
        if half is None:
            with pytest.raises(NonIntegral, match="^symmetric square half is not integer-valued$"):
                sym2_poincare(QPoly(coeffs))
        else:
            assert sym2_poincare(QPoly(coeffs)) == QPoly(half)

    def test_projective_space_square_is_gaussian_binomial(self):
        for n in range(31):
            assert sym2_poincare(proj_space_poincare(n)) == grassmannian_poincare(2, n + 2), n


class TestT4:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_reference_factored_forms(self, n):
        assert t4_poincare(n) == expand_factors(T4_FACTORS[n])

    def test_degree_is_dimension(self):
        for n in (3, 4, 5, 6):
            assert t4_poincare(n).degree == 4 * n - 3

    def test_n5_has_negative_coefficient(self):
        # the double symmetroid is singular; no nonnegativity to assert
        assert min(t4_poincare(5).coeffs) < 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            t4_poincare(2)

    def test_matches_dense_excision_formula(self):
        for n in [*range(3, 41), 50, 100, 200, 1000]:
            assert t4_poincare(n) == dense_t4(n), n

    @pytest.mark.parametrize("n", [3, 5, 200])
    def test_one_coefficient_off_raises(self, n):
        # the common-denominator numerator divides exactly; moved by q^e at
        # any e, it no longer vanishes at q = 1, so the (1-q)^3 run, the
        # first, must refuse
        num = _layout(_TERMS["T4"], n)
        assert _ratio(list(num), _DEN) == t4_poincare(n)
        top = len(num) - 1
        for e in (0, 1, 2, n, 2 * n + 1, top - 1, top):
            off = list(num)
            off[e] += 1
            with pytest.raises(NotDivisible, match=r"\(1 - q\^1\)\^3"):
                _ratio(off, _DEN)
        # moved by q^e (1-q)^3 (1-q^2) instead, it passes the (1-q)^3 run,
        # and the (1-q^2)^2 run must refuse it whichever residue class mod 2
        # e is in
        for e in (n, n + 1):
            off = list(num)
            for f, c in enumerate(_layout(_numerator((1, 1, 1, 1, 2)))):
                off[e + f] += c
            with pytest.raises(NotDivisible, match=r"q\^2"):
                _ratio(off, _DEN)


class TestMP24m2:
    def test_golden_polynomial(self):
        assert mp2_4m2_poincare() == QPoly(MP2_COEFFS)

    def test_degree_and_euler(self):
        p = mp2_4m2_poincare()
        assert p.degree == 17
        assert evaluate(p.coeffs, 1) == 141


class TestDivisibilityTripwires:
    def test_full_sweep_3_to_12(self):
        for n in range(3, 13):
            mbar_gr_poincare(n)
            kontsevich_proj_poincare(n)
            t4_poincare(n)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_large_n(self, n):
        assert mbar_gr_poincare(n).degree == 4 * n - 3
        assert t4_poincare(n).degree == 4 * n - 3


class TestSpaceDispatch:
    def test_simple_tags(self):
        assert poincare(ProjSpace(2)) == proj_space_poincare(2)
        assert poincare(Grassmannian(2, 4)) == grassmannian_poincare(2, 4)
        assert poincare(KontsevichProj(3)) == kontsevich_proj_poincare(3)
        assert poincare(MbarGr(3)) == mbar_gr_poincare(3)
        assert poincare(T4(3)) == t4_poincare(3)
        assert poincare(MP24m2()) == mp2_4m2_poincare()

    def test_recursive_tags(self):
        assert poincare(Sym2Of(ProjSpace(1))) == QPoly([1, 1, 1])
        assert poincare(ProjSpace(1)) * poincare(ProjSpace(1)) == QPoly([1, 2, 1])
        assert sym2_poincare(poincare(ProjSpace(1)) * poincare(ProjSpace(0))) == QPoly([1, 1, 1])

    @pytest.mark.parametrize("space", [3, ("n", 3), QPoly([1])])
    def test_unknown_identifier_is_type_error(self, space):
        with pytest.raises(TypeError, match="unknown space identifier"):
            poincare(space)

    def test_t4_validation(self):
        with pytest.raises(ValueError):
            T4(2)

    def test_dimension_is_degree(self):
        for n in range(3, 8):
            spaces = [ProjSpace(n), Grassmannian(n, n + 3), KontsevichProj(n), MbarGr(n),
                      T4(n), MP24m2()]
            for space in spaces:
                assert poincare(space).degree == space.dimension, space
                assert poincare(Sym2Of(space)).degree == Sym2Of(space).dimension, space
            both = poincare(ProjSpace(n)) * poincare(MbarGr(n))
            assert both.degree == n + MbarGr(n).dimension
            assert sym2_poincare(both).degree == 2 * both.degree


def dense_ratio(ups, downs, poly=QPoly([1])) -> QPoly:
    """The reference: dense schoolbook products of the factors and one long
    division, none of it the package's arithmetic."""
    num = reduce(schoolbook_product, map(one_minus_q_pow, ups), poly.coeffs)
    den = reduce(schoolbook_product, map(one_minus_q_pow, downs), (1,))
    return QPoly(exact_div(num, den))


# each pair (b * m, b) is a polynomial step, (1 - q^(bm)) / (1 - q^b)
divisible_pairs = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)), max_size=6).map(
    lambda pairs: ([b * m for b, m in pairs], [b for b, _ in pairs])
)
# Gaussian binomials (N choose k)_q: each step is exact only together with
# the ones before it
gaussian_pairs = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda kn: (list(range(kn[1] + 1, kn[1] + kn[0] + 1)), list(range(1, kn[0] + 1)))
)
start_polys = st.one_of(
    st.none(),
    st.lists(st.integers(-(2**70), 2**70), max_size=8).map(QPoly),
)

# denominators with repeated factors, in runs: _ratio divides by each run at once
repeated_downs = st.one_of(
    st.sampled_from([(1, 1, 1, 2, 2), (3, 3), (2, 2, 2, 5), (1, 1, 1, 1), (4, 4, 2, 2)]),
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(lambda downs: tuple(sorted(downs))),
)


def start(poly: QPoly | None) -> list[int]:
    """A starting polynomial as _ratio's coefficient list (None is 1)."""
    return [1] if poly is None else list(poly.coeffs)


class TestRatio:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(divisible_pairs, gaussian_pairs), start_polys)
    def test_matches_dense_division(self, pairs, poly):
        ups, downs = pairs
        expected = dense_ratio(ups, downs, QPoly([1]) if poly is None else poly)
        assert _ratio(start(poly), downs, ups) == expected

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(divisible_pairs, gaussian_pairs))
    def test_expanded_numerator_matches_dense_division(self, pairs):
        # the whole ratio is a polynomial, so dividing the expanded numerator
        # by the denominator factors in turn stays exact at every step
        ups, downs = pairs
        assert _ratio(_layout(_numerator((1, *ups))), downs) == dense_ratio(ups, downs)

    def test_empty_ratio_is_one(self):
        assert _ratio([1], ()) == QPoly([1])
        assert _ratio([0, 3], ()) == QPoly([0, 3])
        assert _ratio([], (2,), (4,)) == QPoly([])

    @pytest.mark.parametrize("ups, downs", [
        ((3,), (2,)),  # a remainder
        ((2,), (3,)),  # numerator degree below the denominator's
        ((1,), (2,)),
        # the whole ratio (1 - q^4)(1 - q^6) / (1 - q^2)^2 is a polynomial,
        # but its second partial ratio is not
        ((4, 3, 6), (2, 2, 3)),
    ])
    def test_non_divisible_step_raises(self, ups, downs):
        with pytest.raises(NotDivisible):
            _ratio([1], downs, ups)

    def test_non_divisible_start_raises(self):
        with pytest.raises(NotDivisible):
            _ratio([1, 0, 1], (2,), (1,))  # 1 + q does not divide 1 + q^2
        with pytest.raises(NotDivisible):
            _ratio([5, 0, 1], (3,), (1,))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(repeated_downs, st.lists(st.integers(-(2**70), 2**70), max_size=8),
           st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 3)), max_size=2))
    @example((1, 1, 1, 2, 2), [1], [])
    @example((1, 1, 1, 2, 2), [1], [(3, 1)])
    @example((3, 3), [2, -1], [])
    @example((3, 3), [2, -1], [(0, 1), (3, -1)])  # divisible by 1 - q^3 once
    @example((2, 2, 2, 5), [0, 1], [])
    @example((2, 2, 2, 5), [0, 1], [(12, 2)])
    # the top entry of each run's sums is zero, the ones below it are not
    @example((1, 1), [], [(0, 1), (1, -2)])
    @example((1, 1, 1), [], [(0, 1), (1, -3)])
    @example((2, 2), [], [(0, 1), (2, -2)])
    def test_grouped_division_matches_long_division(self, downs, quotient, perturbation):
        # den * quotient, moved by a few terms: each run of equal factors is
        # one division, exact exactly when the long division is
        num = schoolbook_product(
            reduce(schoolbook_product, map(one_minus_q_pow, downs), (1,)), quotient)
        for e, c in perturbation:
            num += [0] * (e + 1 - len(num))
            num[e] += c
        try:
            expected = dense_ratio((), downs, QPoly(num))
        except NotDivisible:
            with pytest.raises(NotDivisible):
                _ratio(num, downs)
        else:
            assert _ratio(num, downs) == expected

    def test_only_second_factor_of_a_pair_fails(self):
        # (1 - q^2)(1 + q) is divisible by 1 - q^2 once, not twice
        num = [1, 1, -1, -1]
        assert _ratio(list(num), (2,)) == QPoly([1, 1])
        with pytest.raises(NotDivisible):
            exact_div(num, schoolbook_product(one_minus_q_pow(2), one_minus_q_pow(2)))
        with pytest.raises(NotDivisible, match=r"\(1 - q\^2\)\^2"):
            _ratio(list(num), (2, 2))
        with pytest.raises(NotDivisible, match=r"\(1 - q\^2\)\^2"):
            _ratio(list(num), (1, 2, 2))

    def test_unit_stride_run_after_a_paired_step_refuses(self):
        # (1 + q)(1 - q^2) / (1 - q^2) is 1 + q, which (1 - q)^2 does not
        # divide: the stride-1 run after the paired step refuses with its
        # own message
        assert _ratio([1, 1], (2,), (2,)) == QPoly([1, 1])
        with pytest.raises(NotDivisible, match=r"^\(1 - q\^1\)\^2 does not divide"):
            _ratio([1, 1], (2, 1, 1), (2,))

    @pytest.mark.parametrize("ups, downs", [((1,), ()), ((2, 2), (1,)), ((3, 2, 1), (1, 1))])
    def test_more_ups_than_downs_raises(self, ups, downs):
        with pytest.raises(ValueError, match="more paired numerator factors"):
            _ratio([1], downs, ups)


# The least n in each fixed-shape formula's domain.
LEAST_N = {"Pn": 0, "MbarP": 2, "MbarGr": 3, "T4": 3}


def direct_layout(name: str, n: int) -> tuple[int, ...]:
    """The formula's numerator at this n, expanded from its products at n."""
    return canonical(_layout(_numerator(*_products(n)[name])))


class TestTermTables:
    @pytest.mark.parametrize("name", sorted(LEAST_N))
    def test_matches_direct_expansion(self, name):
        for n in [*range(LEAST_N[name], 301), 1000]:
            assert canonical(_layout(_TERMS[name], n)) == direct_layout(name, n), n

    @pytest.mark.parametrize("n", [3, 4])
    def test_colliding_exponents_add_up(self, n):
        # at n = 3, n + 1 meets the constant 4, and at n = 4, n does: terms
        # of a table land on one exponent and their coefficients add
        for name in LEAST_N:
            assert canonical(_layout(_TERMS[name], n)) == direct_layout(name, n)
        for name in ("MbarGr", "T4"):
            assert len({a * n + b for a, b, _ in _TERMS[name]}) < len(_TERMS[name])

    def test_t4_table_size(self):
        # 7 products of 5 two-term factors, 224 terms, cancel to 28 in n
        assert len(_TERMS["T4"]) == 28
        assert all(c for _, _, c in _TERMS["T4"])
