import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from moriconic import (
    BinaryForm,
    Envelope,
    IdenticallyZero,
    KroneckerModule,
    LambdaFamily,
    LinearForm,
    PluckerConic,
    Verdict,
    ZeroConic,
    classify_stability,
    conic_degree,
    envelope,
    family_conic,
    index_pairs,
    modify_family,
    plucker_conic,
)

from moriconic.cli import main as cli_main
from moriconic.plucker import _part_minors, conic_text, modify_text
from moriconic.wire import rat_strings

from conftest import (
    NORMAL_FORM_BUILDERS,
    form_value,
    integer_coords,
    lin_comb,
    plucker_relation,
    random_sl2,
    random_stable_module,
    ref_rref,
    scaled,
    scaled_module,
    written,
)


def x(i, n=3):
    return LinearForm.from_ints([int(j == i) for j in range(n + 1)])


def z(n=3):
    return LinearForm(n, [0] * (n + 1))


def quad(c0, c1, c2):
    return BinaryForm(2, (c0, c1, c2))


def scalar_perturbation_family(n, a, b) -> LambdaFamily:
    """[[x0, L * sum a_i x_i], [L * sum b_i x_i, x0]], sums over i = 1..n."""
    sa = lin_comb(n, {i: a[i] for i in range(1, n + 1)})
    sb = lin_comb(n, {i: b[i] for i in range(1, n + 1)})
    zero = LinearForm(n, [0] * (n + 1))
    return LambdaFamily(
        n,
        [
            [[x(0, n)], [zero, sa]],
            [[zero, sb], [x(0, n)]],
        ],
    )


def diagonal_perturbation_family(n, a, b) -> LambdaFamily:
    """[[x0, L * sum_{i>=2} a_i x_i], [L * sum_{i>=2} b_i x_i, x1]]."""
    sa = lin_comb(n, {i: a[i] for i in range(2, n + 1)})
    sb = lin_comb(n, {i: b[i] for i in range(2, n + 1)})
    zero = LinearForm(n, [0] * (n + 1))
    return LambdaFamily(
        n,
        [
            [[x(0, n)], [zero, sa]],
            [[zero, sb], [x(1, n)]],
        ],
    )


def shifted(doc: dict, k1: int, k2: int) -> dict:
    """The family document with its rows multiplied by lambda^k1 and lambda^k2."""
    zero = ["0"] * (doc["n"] + 1)
    matrix = [[[zero] * k + entry for entry in row] for row, k in zip(doc["matrix"], (k1, k2))]
    return {"n": doc["n"], "matrix": matrix}


def row_power_shift(family: LambdaFamily, k1: int, k2: int) -> LambdaFamily:
    """The family with its rows multiplied by lambda^k1 and lambda^k2."""
    return LambdaFamily.from_json(shifted(family.to_json(), k1, k2))


def random_coeffs(rng, n, start):
    while True:
        vals = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in range(start, n + 1)}
        if any(vals.values()):
            return vals


def count_minor_terms(monkeypatch) -> list:
    """The minors that modify_family builds from now on, as (position, triple), in
    the order it builds them."""
    terms = []

    def counted(*args):
        minors = _part_minors(*args)
        terms.extend(minors.items())
        return minors

    monkeypatch.setattr("moriconic.plucker._part_minors", counted)
    return terms


def count_written_values(monkeypatch) -> list:
    """The number of values that each rat_strings call of plucker writes from now on."""
    sizes = []

    def counted(nums, den):
        nums = tuple(nums)
        sizes.append(len(nums))
        return rat_strings(nums, den)

    monkeypatch.setattr("moriconic.plucker.rat_strings", counted)
    return sizes


class TestPluckerConic:
    def test_scalar_perturbation_at_lambda_one(self, rng):
        # wedge table of the perturbed-scalar matrix with the parameter set to 1
        n = 4
        a = random_coeffs(rng, n, 1)
        b = random_coeffs(rng, n, 1)
        m = KroneckerModule(
            n,
            x(0, n),
            lin_comb(n, a),
            lin_comb(n, b),
            x(0, n),
        )
        c = plucker_conic(m)
        for i in range(1, n + 1):
            assert c.coords[(0, i)] == quad(b[i], 0, -a[i])
        for i, j in combinations(range(1, n + 1), 2):
            assert c.coords[(i, j)] == quad(0, a[i] * b[j] - a[j] * b[i], 0)

    def test_diagonal_single_coordinate(self):
        m = KroneckerModule(3, x(0), z(), z(), x(1))
        c = plucker_conic(m)
        assert c.coords[(0, 1)] == quad(0, 1, 0)
        assert all(c.coords[p].is_zero for p in c.coords if p != (0, 1))

    def test_all_pairs_present(self):
        c = plucker_conic(KroneckerModule(5, x(0, 5), x(2, 5), x(3, 5), x(1, 5)))
        assert set(c.coords) == set(index_pairs(5))

    def test_json_round_trip(self):
        from moriconic import PluckerConic

        c = plucker_conic(KroneckerModule(3, x(0), x(2), x(3), x(1)))
        assert PluckerConic.from_json(written(c)) == c

    def test_incomplete_coordinate_cover_rejected(self):
        from moriconic import PluckerConic

        with pytest.raises(ValueError):
            PluckerConic.from_json({"n": 3, "coords": {"0,1": ["0", "1", "0"]}})

    @pytest.mark.parametrize("n, coords", [(0, {}), (1, {(0, 1): quad(1, 0, 0)})])
    def test_ambient_parameter_below_two_rejected(self, n, coords):
        from moriconic import PluckerConic

        with pytest.raises(ValueError):
            PluckerConic(n, coords)
        with pytest.raises(ValueError):
            PluckerConic.from_ints(n, [1, 0, 0] * len(coords))

    @pytest.mark.parametrize("doc", [
        {"n": 1, "coords": {"0,1": "100"}},
        {"n": 1, "coords": [["1", "0", "0"]]},
        {"n": "3", "coords": {}},
        {"n": True, "coords": {"0,1": ["1", "0", "0"]}},
        {"n": -1, "coords": {}},
        {"n": 0, "coords": {}},
        {"n": 1, "coords": {}},
        {"n": 2, "coords": {" 0,+1": ["1", "0", "0"], "0,2": ["0", "0", "0"], "1,2": ["0", "1", "0"]}},
        {"n": 2, "coords": {"0,01": ["1", "0", "0"], "0,2": ["0", "0", "0"], "1,2": ["0", "1", "0"]}},
        {"n": 2, "coords": {"0,1": ["1", "0"], "0,2": ["0", "0", "0"], "1,2": ["0", "1", "0"]}},
    ])
    def test_from_json_rejects_malformed_documents(self, doc):
        from moriconic import PluckerConic

        with pytest.raises(ValueError):
            PluckerConic.from_json(doc)

    def test_key_count_checked_before_the_keys_are_built(self, monkeypatch):
        from moriconic import PluckerConic

        def refuse(n):
            raise AssertionError("the index pairs were built")

        monkeypatch.setattr("moriconic.conic.index_pairs", refuse)
        for coords in ({}, {"0,1": ["1", "0", "0"]}):
            with pytest.raises(ValueError, match="exactly the keys"):
                PluckerConic.from_json({"n": 10**6, "coords": coords})


class TestEnvelope:
    def test_generic_stable_has_plane_envelope(self):
        c = plucker_conic(KroneckerModule(3, x(0), x(2), x(3), x(1)))
        assert envelope(c).dim == 3

    def test_diagonal_envelope_is_point(self):
        c = plucker_conic(KroneckerModule(3, x(0), z(), z(), x(1)))
        env = envelope(c)
        assert env.dim == 1
        assert len(env.basis) == 1 and len(env.basis[0]) == 6

    def test_scalar_conic_is_zero(self):
        c = plucker_conic(KroneckerModule(3, x(0), z(), z(), x(0)))
        assert c.is_zero
        with pytest.raises(ZeroConic):
            envelope(c)
        with pytest.raises(ZeroConic):
            conic_degree(c)

    @pytest.mark.parametrize("dim, basis", [(2, [[1, 2, 3]]), (1, [[1, 0], [0, 1]]), (0, [[1]])])
    def test_dim_must_count_the_basis_rows(self, dim, basis):
        with pytest.raises(ValueError):
            Envelope(dim, basis)

    @pytest.mark.parametrize("dim, triples", [
        # the first nonzero column is zero in slice 0, after zero columns
        (1, [(0, 0, 0), (0, 0, 0), (0, 3, -6), (0, -1, 2), (0, 0, 0), (0, 5, -10)]),
        (2, [(0, 0, 0), (0, 0, 2), (0, 0, -4), (0, 1, 1), (0, 3, 5), (0, 0, 0)]),
        (3, [(0, 0, 0), (0, 0, 5), (0, 7, 1), (0, 0, 0), (3, 0, 0), (1, 1, 1)]),
        # the pivot block has a negative determinant
        (1, [(-3, 6, 9), (1, -2, -3), (0, 0, 0), (2, -4, -6), (-1, 2, 3), (5, -10, -15)]),
        (2, [(1, 0, 0), (0, -1, 0), (2, 3, 0), (0, 0, 0), (1, 1, 0), (-4, 2, 0)]),
        (3, [(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (2, -3, 5), (0, 0, 0)]),
        # entries over 64 bits
        (1, [(0, 0, 0), (0, 2**70 + 1, 3), (0, 2**71 + 2, 6), (0, 0, 0), (0, 0, 0), (0, -(2**70) - 1, -3)]),
        (2, [(2**65, 0, 1), (3, 2**66 + 1, 0), (2**65 + 3, 2**66 + 1, 1), (0, 0, 0), (2**66 - 3, -(2**66) - 1, 2),
             (-(2**65), 0, -1)]),
        (3, [(2**80 + 1, 3, -5), (7, -(2**90), 1), (0, 0, 0), (1, 2**70, 2**75), (4, 5, 6), (-1, 0, 3)]),
        # n = 2: each unit completion vector of envelope_rows is needed by one of these
        (1, [(1, 1, 0), (2, 2, 0), (0, 0, 0)]),
        (1, [(0, 1, 1), (0, -3, -3), (0, 0, 0)]),
        (1, [(1, 0, 1), (2, 0, 2), (0, 0, 0)]),
        (1, [(1, 1, 1), (0, 0, 0), (3, 3, 3)]),
        (2, [(1, 1, 0), (0, 0, 1), (0, 0, 0)]),
        (2, [(1, 0, 0), (0, 1, 1), (0, 0, 0)]),
        (2, [(0, 1, 0), (1, 0, 1), (1, 1, 1)]),
    ])
    @pytest.mark.parametrize("den", [1, 6])
    def test_envelope_matches_fraction_gauss_jordan(self, dim, triples, den):
        check_envelope(dim, triples, den)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_envelope_of_any_span_matches_fraction_gauss_jordan(self, data):
        dim = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(2, 5))
        size = comb(n + 1, 2)
        entry = st.integers(-3, 3) | st.integers(-(2**80), 2**80)
        basis = data.draw(st.lists(st.tuples(entry, entry, entry), min_size=dim, max_size=dim))
        lead = data.draw(st.integers(0, size - dim))
        coeffs = st.tuples(*[st.integers(-2, 2)] * dim)
        combos = data.draw(st.lists(coeffs, min_size=size - lead, max_size=size - lead))
        triples = [(0, 0, 0)] * lead + [
            tuple(sum(a * v[k] for a, v in zip(cs, basis)) for k in range(3)) for cs in combos
        ]
        assume(len(ref_rref(slices_of(triples, 1))) == dim)
        check_envelope(dim, triples, data.draw(st.integers(1, 12)))


def slices_of(triples, den):
    return [[Fraction(t[k], den) for t in triples] for k in range(3)]


def check_envelope(dim, triples, den):
    """envelope of the conic with these triples over den against Fraction Gauss-Jordan."""
    n = next(n for n in range(2, 10) if comb(n + 1, 2) == len(triples))
    c = PluckerConic.from_ints(n, [x for t in triples for x in t], den)
    basis = ref_rref(slices_of(triples, den))
    assert len(basis) == dim
    assert written(envelope(c)) == {"dim": dim, "basis": [[str(x) for x in row] for row in basis]}


def library_conic_document(doc: dict) -> str:
    """The CLI conic document from the library records, each record's text
    read back and the whole written by one stdlib json.dumps."""
    try:
        c = plucker_conic(KroneckerModule.from_json(doc))
        body = {"schema_version": 1, "n": c.n, "coords": json.loads(c.coords_text()),
                "envelope": json.loads(envelope(c).json_text()), "degree": conic_degree(c)}
    except ZeroConic as exc:
        body = {"error": exc.code, "detail": str(exc)}
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def conic_text_document(doc: dict) -> str:
    try:
        return conic_text(doc) + "\n"
    except ZeroConic as exc:
        return json.dumps({"detail": str(exc), "error": exc.code}, separators=(",", ":")) + "\n"


def test_conic_text_matches_the_library_records():
    rng = random.Random(2611)
    docs = []
    for n in (2, 3, 11, 20, 60):
        docs += [random_stable_module(rng, n).to_json(),
                 scaled_module(random_stable_module(rng, n), Fraction(-7, 12)).to_json()]
        docs += [build(rng, n).to_json() for build in NORMAL_FORM_BUILDERS.values()]
    # a point (dimension 1), a line (dimension 2) and the zero conic
    docs += [KroneckerModule(3, *forms).to_json() for forms in (
        (x(0), z(), z(), x(1)), (x(0), x(1), z(), x(2)), (x(0), z(), z(), x(0)))]
    seen = set()
    for doc in docs:
        expected = library_conic_document(doc)
        assert conic_text_document(doc) == expected
        seen.add(json.loads(expected).get("envelope", {}).get("dim", "zero_conic"))
    assert seen == {1, 2, 3, "zero_conic"}


class TestConicDegree:
    def test_generic_degree_two(self):
        c = plucker_conic(KroneckerModule(3, x(0), x(2), x(3), x(1)))
        assert conic_degree(c) == 2

    def test_diagonal_degree_zero(self):
        c = plucker_conic(KroneckerModule(3, x(0), z(), z(), x(1)))
        assert conic_degree(c) == 0

    def test_triangular_degree_one(self):
        # all wedge coordinates share exactly one linear factor
        c = plucker_conic(KroneckerModule(3, x(0), x(1), z(), x(2)))
        assert conic_degree(c) == 1


class TestPluckerRelations:
    def test_four_term_relations_vanish_identically(self, rng):
        for n in (3, 4, 5, 6):
            for _ in range(10):
                m = random_stable_module(rng, n)
                p = integer_coords(plucker_conic(m))
                for i, j, k, l in combinations(range(n + 1), 4):
                    assert not any(plucker_relation(p, i, j, k, l))


class TestCovariance:
    def test_exact_transformation_law(self, rng):
        # row operations by A in SL2 scale every wedge coordinate by det A = 1;
        # column operations substitute (s, t) -> (s, t) (B^{-1})^T
        from fractions import Fraction as F

        from test_linalg import substitute

        for _ in range(20):
            m = random_stable_module(rng, 3)
            a_mat, b_mat = random_sl2(rng), random_sl2(rng)
            det_b = b_mat[0][0] * b_mat[1][1] - b_mat[0][1] * b_mat[1][0]
            inv = (
                (b_mat[1][1] / det_b, -b_mat[0][1] / det_b),
                (-b_mat[1][0] / det_b, b_mat[0][0] / det_b),
            )
            before = plucker_conic(m)
            after = plucker_conic(m.transform(a_mat, b_mat))
            for pair, f in before.coords.items():
                expected = substitute(f, inv[0][0], inv[0][1], inv[1][0], inv[1][1])
                assert after.coords[pair] == expected

    def test_envelope_and_degree_are_orbit_invariants(self, rng):
        for _ in range(25):
            m = random_stable_module(rng, 4)
            c = plucker_conic(m)
            env, deg = envelope(c), conic_degree(c)
            for _ in range(4):
                moved = m.transform(random_sl2(rng), random_sl2(rng))
                c2 = plucker_conic(moved)
                assert envelope(c2) == env  # same reduced echelon basis = same span
                assert conic_degree(c2) == deg

    def test_stable_modules_give_honest_conics(self, rng):
        for n in (3, 5):
            for _ in range(15):
                m = random_stable_module(rng, n)
                assert classify_stability(m).verdict is Verdict.STABLE
                c = plucker_conic(m)
                assert envelope(c).dim == 3
                assert conic_degree(c) == 2


class TestLambdaFamily:
    def test_specialize_matches_manual(self, rng):
        n = 3
        a = random_coeffs(rng, n, 1)
        b = random_coeffs(rng, n, 1)
        fam = scalar_perturbation_family(n, a, b)
        lam = Fraction(2, 3)
        m = fam.specialize(lam)
        assert m.m12 == scaled(lam, lin_comb(n, a))
        assert m.m21 == scaled(lam, lin_comb(n, b))
        assert m.m11 == x(0, n) and m.m22 == x(0, n)

    def test_specialize_zero_matrix_rejected(self):
        n = 3
        fam = LambdaFamily(n, [[[z()], [z(), x(0)]], [[z(), x(1)], [z()]]])
        with pytest.raises(ValueError):
            fam.specialize(0)

    def test_json_round_trip(self, rng):
        n = 4
        fam = scalar_perturbation_family(n, random_coeffs(rng, n, 1), random_coeffs(rng, n, 1))
        doc = fam.to_json()
        again = LambdaFamily.from_json(doc)
        assert again.to_json() == doc

    def test_family_conic_equals_specialized_conic(self, rng):
        n = 3
        fam = diagonal_perturbation_family(n, random_coeffs(rng, n, 2), random_coeffs(rng, n, 2))
        for lam in (Fraction(1), Fraction(-1, 2), Fraction(3)):
            assert family_conic(fam, lam) == plucker_conic(fam.specialize(lam))


class TestModifyFamily:
    def test_scalar_perturbation_divides_one_power(self, rng, capsys):
        n = 5
        a = random_coeffs(rng, n, 1)
        b = random_coeffs(rng, n, 1)
        result = modify_family(scalar_perturbation_family(n, a, b))
        assert result.k == 1
        c = result.conic
        for i in range(1, n + 1):
            assert c.coords[(0, i)] == quad(b[i], 0, -a[i])
        for i, j in combinations(range(1, n + 1), 2):
            assert c.coords[(i, j)].is_zero
        assert not c.is_zero
        # M(L) = l I + L N for an integer form l and a full N: the L^1 term of
        # the wedge is l ^ q with q = s^2 n21 + st (n22 - n11) - t^2 n12
        for n in (3, 4, 5, 8, 20):
            for _ in range(8):
                l, n11, n12, n21, n22 = ([rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(5))
                q = [(n21[j], n22[j] - n11[j], -n12[j]) for j in range(n + 1)]
                wedge = [l[i] * q[j][e] - l[j] * q[i][e] for i, j in combinations(range(n + 1), 2) for e in range(3)]
                if not any(wedge):
                    continue
                zero = [0] * (n + 1)
                fam = LambdaFamily(n, [[[LinearForm.from_ints(f) for f in entry] for entry in row]
                                       for row in (((l, n11), (zero, n12)), ((zero, n21), (l, n22)))])
                result = modify_family(fam)
                assert result.k == 1
                got = [v for t in integer_coords(result.conic).values() for v in t]
                p = next(i for i, w in enumerate(wedge) if w)
                assert got[p] and all(g * wedge[p] == w * got[p] for g, w in zip(got, wedge))
                code = cli_main(["modify", "--json", json.dumps(fam.to_json())])
                assert (code, json.loads(capsys.readouterr().out)["k"]) == (0, 1)

    def test_diagonal_perturbation_keeps_st(self, rng):
        n = 4
        a = random_coeffs(rng, n, 2)
        b = random_coeffs(rng, n, 2)
        result = modify_family(diagonal_perturbation_family(n, a, b))
        assert result.k == 0
        c = result.conic
        assert c.coords[(0, 1)] == quad(0, 1, 0)
        assert all(c.coords[p].is_zero for p in c.coords if p != (0, 1))
        # the modified map is constant away from two residual base points
        assert result.base_gcd == quad(0, 1, 0)
        assert set(result.base_points) == {(1, 0), (0, 1)}

    def test_generic_lambda_table_of_diagonal_perturbation(self, rng):
        n = 4
        a = random_coeffs(rng, n, 2)
        b = random_coeffs(rng, n, 2)
        fam = diagonal_perturbation_family(n, a, b)
        for lam in (Fraction(1), Fraction(2, 5)):
            c = family_conic(fam, lam)
            assert c.coords[(0, 1)] == quad(0, 1, 0)
            for i in range(2, n + 1):
                assert c.coords[(0, i)] == quad(lam * b[i], 0, 0)
                assert c.coords[(1, i)] == quad(0, 0, -lam * a[i])
            for i, j in combinations(range(2, n + 1), 2):
                expected = lam * lam * (a[i] * b[j] - a[j] * b[i])
                assert c.coords[(i, j)] == quad(0, expected, 0)

    def test_constant_family_is_plain_conic(self):
        fam = LambdaFamily(3, [[[x(0)], [x(2)]], [[x(3)], [x(1)]]])
        result = modify_family(fam)
        assert result.k == 0
        assert result.conic == plucker_conic(KroneckerModule(3, x(0), x(2), x(3), x(1)))
        assert result.base_gcd.degree == 0
        assert result.base_points == ()

    def test_scalar_perturbation_base_point_free_generically(self, rng):
        n = 4
        free = 0
        for _ in range(10):
            a = random_coeffs(rng, n, 1)
            b = random_coeffs(rng, n, 1)
            result = modify_family(scalar_perturbation_family(n, a, b))
            if result.base_gcd.degree == 0:
                assert result.base_points == ()
                free += 1
        assert free >= 8  # the common-factor locus has measure zero

    @pytest.mark.parametrize("k1, k2", [(0, 3), (4, 0), (2, 5), (150, 90)])
    def test_row_powers_of_lambda_add_to_k(self, rng, monkeypatch, k1, k2):
        # every minor gains the factor lambda^(k1 + k2); the leading zero powers add no minor term
        built = count_minor_terms(monkeypatch)
        n = 4
        for family in (
            scalar_perturbation_family(n, random_coeffs(rng, n, 1), random_coeffs(rng, n, 1)),
            diagonal_perturbation_family(n, random_coeffs(rng, n, 2), random_coeffs(rng, n, 2)),
        ):
            built.clear()
            want = modify_family(family)
            base_count = len(built)
            got = modify_family(row_power_shift(family, k1, k2))
            assert got == want._replace(k=want.k + k1 + k2)
            assert len(built) == 2 * base_count

    def test_scalar_perturbation_adds_at_most_2n_minor_terms(self, rng, monkeypatch):
        # the rows are nonzero only at x0 for lambda^0 and off x0 for lambda^1, so
        # only the pairs (0, i) get terms: n from each of the two parts of lambda^1
        terms = count_minor_terms(monkeypatch)
        n = 30
        a = random_coeffs(rng, n, 1)
        b = random_coeffs(rng, n, 1)
        result = modify_family(scalar_perturbation_family(n, a, b))
        assert len(terms) <= 2 * n
        assert result.k == 1
        for i in range(1, n + 1):
            assert result.conic.coords[(0, i)] == quad(b[i], 0, -a[i])
        assert all(f.is_zero for (i, _), f in result.conic.coords.items() if i)

    def test_modify_text_writes_only_the_triples_with_a_term(self, rng, monkeypatch):
        # the scalar perturbation's conic is zero off the pairs (0, i), so its text
        # writes at most the values of the 2n minor terms of lambda^1; a family whose
        # rows are nonzero in every column writes all 3 C(n + 1, 2) of them
        written = count_written_values(monkeypatch)
        n = 30
        family = scalar_perturbation_family(n, random_coeffs(rng, n, 1), random_coeffs(rng, n, 1))
        modify_text(family.to_json())
        assert 0 < sum(written) <= 3 * 2 * n
        written.clear()
        forms = [[str(c * (i + 1) + d) for i in range(n + 1)] for c, d in ((1, 0), (2, -15), (-1, 9), (3, 1))]
        modify_text({"n": n, "matrix": [[[forms[0]], [forms[1]]], [[forms[2]], [forms[3]]]]})
        assert sum(written) == 3 * comb(n + 1, 2)

    def test_full_support_rows_build_each_pair_once(self, monkeypatch):
        # rows nonzero in every column: the one part of lambda^0 builds each of
        # the C(n + 1, 2) minors once, as the module conic does
        built = count_minor_terms(monkeypatch)
        n = 6
        coeffs = ((1, 0), (2, -15), (-1, 9), (3, 1))
        forms = [LinearForm(n, [c * (i + 1) + d for i in range(n + 1)]) for c, d in coeffs]
        fam = LambdaFamily(n, [[[forms[0]], [forms[1]]], [[forms[2]], [forms[3]]]])
        result = modify_family(fam)
        assert len(built) == len({p for p, _ in built}) == len(index_pairs(n))
        assert result.k == 0
        assert result.conic == family_conic(fam, 0)

    def test_identically_zero_wedge(self):
        # both rows stay proportional for every parameter value
        fam = LambdaFamily(3, [[[x(0)], [z(), x(0)]], [[x(0)], [z(), x(0)]]])
        with pytest.raises(IdenticallyZero):
            modify_family(fam)

    def test_modified_conic_never_zero(self, rng):
        n = 3
        for _ in range(20):
            a = random_coeffs(rng, n, 1)
            b = random_coeffs(rng, n, 1)
            result = modify_family(scalar_perturbation_family(n, a, b))
            assert result.k >= 1
            assert not result.conic.is_zero



def library_modify_document(doc: dict) -> str:
    """The CLI modify document from the records of modify_family, written by
    one stdlib json.dumps, every coefficient and base point as str(Fraction)
    writes it."""
    try:
        result = modify_family(LambdaFamily.from_json(doc))
    except IdenticallyZero as exc:
        body = {"error": exc.code, "detail": str(exc)}
    else:
        coords = {f"{i},{j}": [str(c) for c in f.coeffs] for (i, j), f in result.conic.coords.items()}
        base = {"gcd": [str(c) for c in result.base_gcd.coeffs], "gcd_degree": result.base_gcd.degree,
                "rational_points": [[str(s), str(t)] for s, t in result.base_points]}
        body = {"schema_version": 1, "k": result.k, "conic": {"n": result.conic.n, "coords": coords},
                "residual_base": base}
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def random_family_doc(rng, n: int, density: float, powers: int) -> dict:
    """A family document with powers random forms per entry, each coefficient
    nonzero with probability density, some of them p/q strings."""
    def coefficient():
        if rng.random() >= density:
            return "0"
        p = rng.choice([i for i in range(-9, 10) if i])
        return str(p) if rng.random() < 0.6 else f"{p}/{rng.randint(2, 7)}"

    return {"n": n, "matrix": [[[[coefficient() for _ in range(n + 1)] for _ in range(powers)]
                                for _ in range(2)] for _ in range(2)]}


def unit_form(n: int, i: int, c=1) -> list[str]:
    """The wire form of c x_i in n + 1 coordinates."""
    return [str(c) if j == i else "0" for j in range(n + 1)]


def test_modify_stdout_matches_the_library_records(capsys):
    rng = random.Random(2801)
    docs = []
    for n in (2, 3, 11, 20, 60):
        x0, x1, zero = unit_form(n, 0), unit_form(n, 1), ["0"] * (n + 1)
        # sparse rows and rows nonzero in every column, shifted by up to three powers
        for density, (k1, k2) in zip((0.15, 1.0, 0.5, 1.0), ((0, 0), (1, 0), (1, 1), (2, 1))):
            docs.append(shifted(random_family_doc(rng, n, density, rng.randint(1, 3)), k1, k2))
        # [[x0, L x1], [L x2 - x1 / 3, x0]]: at lambda^0 the rows s x0 and t x0 have zero wedge
        mixed = ["0", "-1/3", "1"] + zero[3:]
        docs.append({"n": n, "matrix": [[[x0], [zero, x1]], [[zero, mixed], [x0]]]})
        # rows (2s + t) x0 and (s + 3t) x1: one minor (2s + t)(s + 3t), rational base points
        rational = {"n": n, "matrix": [[[unit_form(n, 0, 2)], [x0]], [[x1], [unit_form(n, 1, 3)]]]}
        # rows s x0 + t x1 and t x0 - s x1: one minor -(s^2 + t^2), irrational base points
        irrational = {"n": n, "matrix": [[[x0], [x1]], [[unit_form(n, 1, -1)], [x0]]]}
        docs += [rational, shifted(irrational, 0, 1), shifted(rational, 1, 2)]
        # the identically zero wedge: equal rows, and a row with no form
        row = random_family_doc(rng, n, 0.5, 2)["matrix"][0]
        docs += [{"n": n, "matrix": [row, row]}, {"n": n, "matrix": [row, [[], []]]}]
    seen = set()
    for doc in docs:
        expected = library_modify_document(doc)
        body = json.loads(expected)
        assert cli_main(["modify", "--json", json.dumps(doc)]) == (2 if "error" in body else 0)
        assert capsys.readouterr().out == expected
        if "error" in body:
            seen.add(body["error"])
            continue
        base = body["residual_base"]
        seen.add(("k", body["k"]))
        seen.add("rational" if base["rational_points"] else "irrational" if base["gcd_degree"] else "absent")
        seen.add(("n", body["conic"]["n"]))
    assert seen == {"identically_zero", "rational", "irrational", "absent",
                    *(("k", k) for k in range(4)), *(("n", n) for n in (2, 3, 11, 20, 60))}


# ---------------------------------------------------------------------------
# Families against a Fraction reference
# ---------------------------------------------------------------------------


def ref_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def ref_add(f, g):
    long, short = (f, g) if len(f) >= len(g) else (g, f)
    return [a + (short[i] if i < len(short) else 0) for i, a in enumerate(long)]


def ref_minor_polys(n, entries):
    """Per index pair, the (s^2, st, t^2) coefficients of the wedge as polynomials
    in lambda (coefficient lists, lowest degree first)."""
    (e11, e12), (e21, e22) = entries

    def column(entry, i):
        return [v[i] for v in entry]

    def cross(p, q, i, j):  # p_i q_j - p_j q_i for polynomial entries p, q
        return ref_add(ref_mul(column(p, i), column(q, j)),
                       [-x for x in ref_mul(column(p, j), column(q, i))])

    return [
        (cross(e11, e21, i, j),
         ref_add(cross(e11, e22, i, j), cross(e12, e21, i, j)),
         cross(e12, e22, i, j))
        for i, j in index_pairs(n)
    ]


def ref_poly_gcd(f, g):
    """Monic gcd of univariate polynomials, highest degree first."""
    def strip(p):
        while p and p[0] == 0:
            p = p[1:]
        return p

    f, g = strip(f), strip(g)
    while g:
        while len(f) >= len(g):
            c = f[0] / g[0]
            f = strip([a - c * b for a, b in zip(f, g)] + f[len(g):])
        f, g = g, f
    return [a / f[0] for a in f]


def ref_form_gcd(forms):
    """Normalized gcd of binary quadratics (coefficient i multiplies s^(2-i) t^i),
    not all zero: t^m for m leading zeros, times the gcd in s with t = 1."""
    forms = [f for f in forms if any(f)]
    m = min(next(i for i, c in enumerate(f) if c) for f in forms)
    g = []
    for f in forms:
        g = ref_poly_gcd(g, list(f))
    values = [Fraction(0)] * m + g
    d = lcm(*(v.denominator for v in values))
    ints = [int(v * d) for v in values]
    k = gcd(*ints)
    if next(x for x in ints if x) < 0:
        k = -k
    return tuple(x // k for x in ints)


# +-p/q for p in 1..5 and q in 1, 1, 2, 3, 4, and zero for a quarter of the list
SCALARS = [sign * Fraction(p, q) for sign in (1, -1) for p in range(1, 6) for q in (1, 1, 2, 3, 4)]
SCALARS = [Fraction(0)] * (len(SCALARS) // 3) + SCALARS


@st.composite
def families(draw):
    """(n, entries as lists of Fraction vectors per lambda degree, lambda): entries
    of lambda-degree 0..3, some empty; for about a quarter of the draws every
    entry is a multiple of (lambda - lam), so the matrix vanishes at lam.  In
    about half of the draws every vector is nonzero in at most two columns, so
    the rows' supports are small and often share a column."""
    n = draw(st.integers(2, 4))
    # a zero in about one draw of four, for scalars, vectors and lambda alike
    scalar = st.sampled_from(SCALARS)
    if draw(st.booleans()):
        vector = st.tuples(st.sets(st.integers(0, n), min_size=1, max_size=2),
                           st.tuples(*[scalar] * (n + 1))).map(
            lambda p: tuple(x if i in p[0] else Fraction(0) for i, x in enumerate(p[1])))
    else:
        vector = st.tuples(st.sampled_from([1, 1, 1, 0]), st.tuples(*[scalar] * (n + 1))).map(
            lambda p: tuple(p[0] * x for x in p[1]))
    lam = draw(scalar)
    vanish = draw(st.integers(0, 3)) == 0
    entries = []
    for _ in range(2):
        row = []
        for _ in range(2):
            size = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4] if not vanish else [0, 1, 2, 3]))
            entry = [draw(vector) for _ in range(size)]
            if vanish and entry:
                # the entry times (lambda - lam), coefficient by coefficient
                shifted = [(Fraction(0),) * (n + 1)] + entry
                entry = [tuple(a - lam * b for a, b in zip(hi, lo))
                         for hi, lo in zip(shifted, entry + [(Fraction(0),) * (n + 1)])]
            row.append(entry)
        entries.append(row)
    return n, entries, lam


@settings(derandomize=True, max_examples=300, deadline=None)
@given(families())
@example((3, [[[(Fraction(-1, 2), 0, 0, 0), (1, 0, 0, 0)]] * 2] * 2, Fraction(1, 2)))
@example((2, [[[(0, Fraction(-2, 3), 0), (0, 1, 0)], []],
              [[], [(0, 0, Fraction(-2, 3)), (0, 0, 1)]]], Fraction(2, 3)))
# [[x0, L (x1 - 2 x2 + x3 / 2)], [L (3 x1 + x3 / 4), x0]]: k = 1, only the pairs (0, i)
@example((3, [[[(1, 0, 0, 0)], [(0, 0, 0, 0), (0, 1, -2, Fraction(1, 2))]],
              [[(0, 0, 0, 0), (0, 3, 0, Fraction(1, 4))], [(1, 0, 0, 0)]]], Fraction(1)))
# rows s (x0 + L x1) and s (x0 + L x1) + t L x2: at lambda^1 the parts (0, 1) and
# (1, 0) cancel at the pair (0, 1), and the pair (0, 2) is left
@example((2, [[[(1, 0, 0), (0, 1, 0)], []],
              [[(1, 0, 0), (0, 1, 0)], [(0, 0, 0), (0, 0, 1)]]], Fraction(-1, 2)))
# rows s x0 + t x1 and s x1 + t x0 share both columns: the pair (0, 1) is s^2 - t^2
@example((2, [[[(1, 0, 0)], [(0, 1, 0)]], [[(0, 1, 0)], [(1, 0, 0)]]], Fraction(3)))
# rows s (x0 + x1) and t x0: column 0 is in both supports and column 1 only in
# the first, and the pair (0, 1) is -st
@example((2, [[[(1, 1, 0)], []], [[], [(1, 0, 0)]]], Fraction(2)))
def test_family_matches_fraction_reference(case):
    n, entries, lam = case
    fam = LambdaFamily(n, [[[LinearForm(n, v) for v in entry] for entry in row] for row in entries])
    arg = lam.numerator if lam.denominator == 1 else lam
    assert fam.to_json() == {
        "n": n,
        "matrix": [[[[str(Fraction(c)) for c in v] for v in entry] for entry in row]
                   for row in entries],
    }
    # the matrix and its wedge at lam
    values = [
        tuple(sum((Fraction(v[i]) * lam**k for k, v in enumerate(entry)), Fraction(0))
              for i in range(n + 1))
        for row in entries for entry in row
    ]
    minors = ref_minor_polys(n, entries)
    at_lam = [tuple(sum((c * lam**k for k, c in enumerate(p)), Fraction(0)) for p in triple)
              for triple in minors]
    c = family_conic(fam, arg)
    assert c.n == n and [c.coords[pair].coeffs for pair in index_pairs(n)] == at_lam
    if any(any(v) for v in values):
        m = fam.specialize(arg)
        assert [f.coeffs for f in (m.m11, m.m12, m.m21, m.m22)] == values
        assert c == plucker_conic(m)
    else:
        assert c.is_zero
        with pytest.raises(ValueError):
            fam.specialize(arg)
    # the elementary modification: the lowest lambda power of the wedge
    lows = [next((k for k, x in enumerate(p) if x), None) for triple in minors for p in triple]
    if all(low is None for low in lows):
        with pytest.raises(IdenticallyZero):
            modify_family(fam)
        return
    k = min(low for low in lows if low is not None)
    conic = [tuple(p[k] if k < len(p) else Fraction(0) for p in triple) for triple in minors]
    result = modify_family(fam)
    assert result.k == k
    assert [result.conic.coords[pair].coeffs for pair in index_pairs(n)] == conic
    assert result.base_gcd.coeffs == ref_form_gcd(conic)
    assert all(form_value(result.base_gcd.coeffs, s, t) == 0 for s, t in result.base_points)
