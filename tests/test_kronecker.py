import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from moriconic import (
    ALL_ZERO,
    KroneckerModule,
    LinearForm,
    NotSemistable,
    QuadricForm,
    RatMatrix,
    StabilizerKind,
    Stratum,
    Verdict,
    Witness,
    WitnessKind,
    classify_stability,
    cokernel_kind,
    column_minors,
    det_quadric,
    index_pairs,
    minor_gcd,
    pencil_matrix,
    quadric_rank,
    stratify,
)
from moriconic.kronecker import BinaryForm, pivot_columns

from conftest import (
    NORMAL_FORM_BUILDERS,
    bareiss,
    cli_stdout,
    irrational_diagonalizable_module,
    random_module,
    random_sl2,
    reference_stability_stdout,
    reference_stratify_stdout,
    scaled,
    scaled_module,
    sympy_stratum,
)


def x(i, n=3):
    return LinearForm.from_ints([int(j == i) for j in range(n + 1)])


def z(n=3):
    return LinearForm(n, [0] * (n + 1))


def module(n, rows):
    (a, b), (c, d) = rows
    return KroneckerModule(n, a, b, c, d)


DIAG = module(3, [[x(0), z()], [z(), x(1)]])
SCALAR = module(3, [[x(0), z()], [z(), x(0)]])
ZERO_ROW = module(3, [[x(0), x(1)], [z(), z()]])
GENERIC = module(3, [[x(0), x(2)], [x(3), x(1)]])
UNIPOTENT = module(3, [[x(0), x(1)], [z(), x(0)]])
TRIANGULAR = module(3, [[x(0), x(1)], [z(), x(2)]])


class TestConstruction:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            KroneckerModule(1, *(z(1) for _ in range(3)), x(0, 1))

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            module(3, [[z(), z()], [z(), z()]])

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            KroneckerModule(3, x(0), z(), z(), x(0, 4))

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError, match=r"^expected 16 coefficients, got 15$"):
            KroneckerModule.from_ints(3, [1] * 15)
        with pytest.raises(ValueError, match=r"^expected 12 coefficients, got 11$"):
            KroneckerModule.from_ints(2, [1] * 11)

    def test_json_round_trip(self):
        doc = GENERIC.to_json()
        assert KroneckerModule.from_json(doc) == GENERIC


class TestColumnMinors:
    def test_diagonal(self):
        minors = dict(zip(index_pairs(3), column_minors(DIAG)))
        assert minors[(0, 1)] == BinaryForm(2, (0, 1, 0))
        assert all(minors[p].is_zero for p in minors if p != (0, 1))

    def test_zero_row_all_vanish(self):
        assert all(f.is_zero for f in column_minors(ZERO_ROW))

    def test_scalar_all_vanish(self):
        assert all(f.is_zero for f in column_minors(SCALAR))


class TestClassification:
    def test_zero_row_unstable_with_row_witness(self):
        cls = classify_stability(ZERO_ROW)
        assert cls.verdict is Verdict.UNSTABLE
        assert cls.witness.kind is WitnessKind.ZERO_ROW
        assert cls.witness.vector == (0, 1)
        assert cls.closed_orbit is None and cls.stabilizer_kind is None

    def test_zero_column_unstable(self):
        m = module(3, [[x(0), z()], [x(1), z()]])
        cls = classify_stability(m)
        assert cls.verdict is Verdict.UNSTABLE
        assert cls.witness.kind is WitnessKind.ZERO_COLUMN
        assert cls.witness.vector == (0, 1)

    def test_diagonal_strictly_semistable_closed(self):
        cls = classify_stability(DIAG)
        assert cls.verdict is Verdict.STRICTLY_SEMISTABLE
        assert cls.closed_orbit is True
        assert cls.stabilizer_kind is StabilizerKind.CSTAR_Z2
        assert cls.witness.kind is WitnessKind.RANK_DROP

    def test_scalar_strictly_semistable_sl2(self):
        cls = classify_stability(SCALAR)
        assert cls.verdict is Verdict.STRICTLY_SEMISTABLE
        assert cls.closed_orbit is True
        assert cls.stabilizer_kind is StabilizerKind.SL2_Z2

    def test_triangular_not_closed(self):
        for m in (UNIPOTENT, TRIANGULAR):
            cls = classify_stability(m)
            assert cls.verdict is Verdict.STRICTLY_SEMISTABLE
            assert cls.closed_orbit is False
            assert cls.stabilizer_kind is None

    def test_generic_stable(self):
        cls = classify_stability(GENERIC)
        assert cls.verdict is Verdict.STABLE
        assert cls.witness is None
        assert cls.closed_orbit is True
        assert cls.stabilizer_kind is StabilizerKind.FINITE

    @pytest.mark.parametrize("m, stratum", [(DIAG, Stratum.Y1), (UNIPOTENT, Stratum.Z0)])
    def test_root_structure_computed_once(self, monkeypatch, m, stratum):
        import moriconic.strata as strata

        calls = []
        real = strata.root_points
        monkeypatch.setattr(strata, "root_points", lambda g: calls.append(g) or real(g))
        cls = classify_stability(m)
        assert len(calls) == 1
        assert cls.verdict is Verdict.STRICTLY_SEMISTABLE and stratify(m) is stratum

    def test_witness_iff_not_stable(self, rng):
        for _ in range(100):
            m = random_module(rng, 3)
            cls = classify_stability(m)
            assert (cls.witness is None) == (cls.verdict is Verdict.STABLE)


class TestStratify:
    def test_scalar_y0(self):
        assert stratify(SCALAR) is Stratum.Y0

    def test_unipotent_z0_with_double_root(self):
        assert stratify(UNIPOTENT) is Stratum.Z0
        g = minor_gcd(UNIPOTENT)
        assert g == BinaryForm(2, (0, 0, 1))  # t^2

    def test_triangular_z1(self):
        assert stratify(TRIANGULAR) is Stratum.Z1
        assert minor_gcd(TRIANGULAR) == BinaryForm(1, (0, 1))  # t

    def test_diagonal_y1(self):
        assert stratify(DIAG) is Stratum.Y1

    def test_irrational_conjugate_diagonal_y1(self, rng):
        for _ in range(20):
            m = irrational_diagonalizable_module(rng, 3)
            assert stratify(m) is Stratum.Y1
            cls = classify_stability(m)
            assert cls.stabilizer_kind is StabilizerKind.CSTAR_Z2
            assert cls.witness.kind is WitnessKind.GCD_CERTIFICATE
            assert cls.witness.form.degree == 2

    def test_generic_stable_locus(self):
        assert stratify(GENERIC) is Stratum.STABLE_LOCUS

    def test_unstable_locus(self):
        assert stratify(ZERO_ROW) is Stratum.UNSTABLE_LOCUS


class TestWitnessSoundness:
    def test_unstable_witnesses_annihilate(self, rng):
        for _ in range(50):
            m = NORMAL_FORM_BUILDERS[Stratum.UNSTABLE_LOCUS](rng, 3)
            m = m.transform(random_sl2(rng), random_sl2(rng))
            cls = classify_stability(m)
            v = cls.witness.vector
            if cls.witness.kind is WitnessKind.ZERO_COLUMN:
                assert pencil_matrix(m, v[0], v[1]).rank() == 0
            else:
                w1, w2 = v
                combo = [w1 * a + w2 * b for a, b in zip(
                    m.m11.coeffs + m.m12.coeffs, m.m21.coeffs + m.m22.coeffs)]
                assert all(c == 0 for c in combo)

    def test_rank_drop_witnesses_drop_rank(self, rng):
        for stratum in (Stratum.Y0, Stratum.Z0, Stratum.Y1, Stratum.Z1):
            for _ in range(25):
                m = NORMAL_FORM_BUILDERS[stratum](rng, 3)
                m = m.transform(random_sl2(rng), random_sl2(rng))
                cls = classify_stability(m)
                if cls.witness.kind is WitnessKind.RANK_DROP:
                    s, t = cls.witness.vector
                    assert pencil_matrix(m, s, t).rank() <= 1

    def test_stable_modules_have_full_rank_pencil_samples(self, rng):
        # brute force: no sampled direction drops the rank of a stable pencil
        for _ in range(20):
            m = NORMAL_FORM_BUILDERS[Stratum.STABLE_LOCUS](rng, 3)
            for s in range(-4, 5):
                for t in range(-4, 5):
                    if (s, t) != (0, 0):
                        assert pencil_matrix(m, s, t).rank() == 2


class TestOrbitInvariance:
    def test_all_classes_invariant_under_group(self, rng):
        for stratum, builder in NORMAL_FORM_BUILDERS.items():
            for _ in range(20):
                base = builder(rng, 3)
                assert stratify(base) is stratum
                verdict = classify_stability(base).verdict
                for _ in range(3):
                    moved = base.transform(random_sl2(rng), random_sl2(rng))
                    assert stratify(moved) is stratum
                    assert classify_stability(moved).verdict is verdict

    def test_projective_scaling_invariance(self, rng):
        for _ in range(30):
            m = random_module(rng, 4)
            for c in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
                assert stratify(scaled_module(m, c)) is stratify(m)

    def test_stable_has_no_zero_entry_after_random_change(self, rng):
        for _ in range(25):
            m = NORMAL_FORM_BUILDERS[Stratum.STABLE_LOCUS](rng, 3)
            moved = m.transform(random_sl2(rng), random_sl2(rng))
            for row in moved.entries():
                for entry in row:
                    assert not entry.is_zero


class TestAgainstIndependentRoute:
    def test_sympy_agreement_random(self, rng):
        for _ in range(60):
            m = random_module(rng, 3)
            assert stratify(m) is sympy_stratum(m)

    def test_sympy_agreement_normal_forms(self, rng):
        for stratum, builder in NORMAL_FORM_BUILDERS.items():
            for _ in range(10):
                m = builder(rng, 3).transform(random_sl2(rng), random_sl2(rng))
                assert sympy_stratum(m) is stratum


class TestDeterminant:
    def test_diagonal_gram(self):
        q = det_quadric(DIAG)
        assert q.gram.entries[0][1] == Fraction(1, 2)
        assert q.gram.entries[1][0] == Fraction(1, 2)
        assert quadric_rank(q) == 2

    def test_sum_of_squares(self):
        m = module(3, [[x(0), x(1)], [scaled(-1, x(1)), x(0)]])
        q = det_quadric(m)
        assert q.gram.entries[0][0] == 1 and q.gram.entries[1][1] == 1
        assert quadric_rank(q) == 2

    def test_generic_rank_four(self):
        assert quadric_rank(det_quadric(GENERIC)) == 4

    def test_rank_three(self):
        m = module(3, [[x(0), x(1)], [scaled(-1, x(1)), x(2)]])
        assert quadric_rank(det_quadric(m)) == 3

    def test_rank_one_and_zero(self):
        assert quadric_rank(det_quadric(SCALAR)) == 1
        zero_q = QuadricForm(3, RatMatrix([[0, 0, 0, 0]] * 4))
        assert quadric_rank(zero_q) == 0

    def test_transpose_duality_exact(self, rng):
        for _ in range(100):
            m = random_module(rng, 4)
            assert det_quadric(m).gram == det_quadric(m.transpose()).gram

    def test_rank_bound(self, rng):
        for n in (3, 5, 7):
            for _ in range(40):
                assert quadric_rank(det_quadric(random_module(rng, n))) <= 4

    def test_determinant_invariant_under_special_linear_action(self, rng):
        # det(A M B^{-1}) = det M exactly when det A = det B = 1
        for _ in range(40):
            m = random_module(rng, 4)
            moved = m.transform(random_sl2(rng), random_sl2(rng))
            assert det_quadric(moved).gram == det_quadric(m).gram


class TestCokernelKind:
    def test_generic_twisted_ideal_rank_four(self):
        ck = cokernel_kind(GENERIC)
        assert ck.kind == "twisted_ideal_of_quadric" and ck.det_rank == 4

    def test_rank_three_twisted_ideal(self):
        m = module(3, [[x(0), x(1)], [scaled(-1, x(1)), x(2)]])
        ck = cokernel_kind(m)
        assert ck.kind == "twisted_ideal_of_quadric" and ck.det_rank == 3

    def test_diagonal_plane_pair(self):
        ck = cokernel_kind(DIAG)
        assert ck.kind == "plane_pair_extension" and ck.det_rank == 2

    def test_unstable_rejected(self):
        with pytest.raises(NotSemistable):
            cokernel_kind(ZERO_ROW)


@st.composite
def rank_limited_rows(draw, heights=st.just(4)):
    """Integer h x (n + 1) matrices L R of rank at most r, 1 <= r <= h, with up
    to three columns zero.  Half the draws take r = h, which mostly gives full
    rank when at least h columns are nonzero."""
    h = draw(heights)
    n = draw(st.integers(2, 8))
    r = draw(st.just(h) | st.integers(1, h))
    zeros = draw(st.sets(st.integers(0, n), max_size=3))
    entries = st.integers(-3, 3)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=h, max_size=h))
    right = draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1), min_size=r, max_size=r))
    return n, [[0 if j in zeros else sum(a * row[j] for a, row in zip(coeffs, right)) for j in range(n + 1)]
               for coeffs in left]


def reference_cokernel_kind(M: KroneckerModule):
    """cokernel_kind's answer from the rank of the whole determinant Gram
    matrix, by Bareiss elimination, and the stability verdict."""
    if classify_stability(M).verdict is Verdict.UNSTABLE:
        return NotSemistable
    r = len(bareiss(det_quadric(M).gram.int_rows())[1])
    return ("twisted_ideal_of_quadric" if r >= 3 else "plane_pair_extension", r)


class TestPivotScan:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rank_limited_rows(st.integers(1, 8)))
    def test_pivots_match_bareiss(self, case):
        _, rows = case
        pivots = bareiss(rows)[1]
        assert pivot_columns(rows) == pivots
        assert RatMatrix(rows).rank() == len(pivots)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rank_limited_rows(), st.integers(1, 12))
    def test_cokernel_kind_matches_the_whole_gram(self, case, den):
        n, rows = case
        assume(any(map(any, rows)))
        M = KroneckerModule.from_ints(n, [x for row in rows for x in row], den)
        try:
            found = tuple(cokernel_kind(M))
        except NotSemistable:
            found = NotSemistable
        assert found == reference_cokernel_kind(M)

    def test_cokernel_kind_builds_no_matrix(self, monkeypatch):
        # the block's rank is read from its integer rows, whatever its denominator
        def refuse(*args, **kwargs):
            raise AssertionError("a RatMatrix was built")

        modules = [KroneckerModule.from_ints(3, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], den)
                   for den in (1, 6)]
        monkeypatch.setattr("moriconic.kronecker.RatMatrix.from_ints", refuse)
        for M in modules:
            assert cokernel_kind(M) == ("twisted_ideal_of_quadric", 4)

    def test_scan_stops_at_four_pivots(self):
        # a column past the fourth pivot is never read
        rows = [[1, 0, 0, 0, 1], [0, 1, 0, 0, 2], [0, 0, 1, 0, 3], [0, 0, 0, 1, "not read"]]
        assert pivot_columns(rows) == (0, 1, 2, 3)


class TestMinorGcdMarker:
    def test_scalar_gcd_is_all_zero(self):
        assert minor_gcd(SCALAR) is ALL_ZERO


class TestDimensionRange:
    def test_smallest_ambient_dimension(self, rng):
        # n = 2 leaves just enough room for three independent forms
        for stratum, builder in NORMAL_FORM_BUILDERS.items():
            m = builder(rng, 2)
            assert stratify(m) is stratum

    def test_larger_ambient_dimension(self, rng):
        for stratum, builder in NORMAL_FORM_BUILDERS.items():
            m = builder(rng, 7).transform(random_sl2(rng), random_sl2(rng))
            assert stratify(m) is stratum

    def test_malformed_json_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            KroneckerModule.from_json({"n": 3, "matrix": [[["1"], ["0"]], [["0"], ["1"]]]})
        with pytest.raises((ValueError, KeyError)):
            KroneckerModule.from_json({"matrix": []})


def assert_documents_match_the_reference(M: KroneckerModule) -> Witness | None:
    """stability and stratify on M's document write the reference bytes; M's witness."""
    doc = json.dumps(M.to_json())
    cls = classify_stability(M)
    assert cli_stdout("stability", "--json", doc) == (0, reference_stability_stdout(cls))
    assert cli_stdout("stratify", "--json", doc) == (0, reference_stratify_stdout(M))
    w = cls.witness
    if w is not None and w.vector is not None:
        # a rank drop's canonical root (s/t, 1) or (1, 0); a zero column's or
        # row's coprime integers, the first nonzero one positive
        assert all(type(c) is Fraction for c in w.vector)
        s, t = w.vector
        if w.kind is WitnessKind.RANK_DROP:
            assert t == 1 or (s, t) == (1, 0)
        else:
            assert s.denominator == t.denominator == 1 and gcd(s.numerator, t.numerator) == 1
            assert s > 0 or s == 0 and t > 0
    return w


class TestDocuments:
    """The per-stratum texts against the documents the CLI encoded from the records."""

    def test_moved_normal_forms(self):
        rng = random.Random(2323)
        builders = [*NORMAL_FORM_BUILDERS.values(), irrational_diagonalizable_module]
        kinds = Counter()
        for n in (2, 3, 4, 5, 6, 20):
            for builder in builders:
                for _ in range(3):
                    M = builder(rng, n).transform(random_sl2(rng), random_sl2(rng))
                    for m in (M, M.transpose()):
                        w = assert_documents_match_the_reference(m)
                        if w is not None:
                            kinds[w.kind] += 1
                            if w.kind is WitnessKind.RANK_DROP:
                                kinds["t > 1" if w.vector[0].denominator > 1 else "t <= 1"] += 1
        assert set(kinds) == {*WitnessKind, "t > 1", "t <= 1"}

    def test_zero_heavy_modules(self):
        # entries in {-1, 0, 1} at n = 2 hit zero columns, zero rows, Y0 and Z0
        rng = random.Random(2324)
        strata = Counter()
        for _ in range(5000):
            nums = rng.choices((-1, 0, 0, 0, 1), k=12)
            if not any(nums):
                continue
            M = KroneckerModule.from_ints(2, nums)
            w = assert_documents_match_the_reference(M)
            strata[stratify(M)] += 1
            if w is not None:
                strata[w.kind] += 1
        assert set(strata) >= {*Stratum, *WitnessKind} - {Stratum.STABLE_LOCUS}

    @pytest.mark.parametrize("doc, detail", [
        ('{"n":1,"matrix":[[["1","0"],["0","1"]],[["0","0"],["1","0"]]]}', "ambient parameter n must be >= 2"),
        ('{"n":2,"matrix":[[["0","0","0"],["0","0","0"]],[["0","0","0"],["0","0","0"]]]}',
         "the zero matrix is not a point of the projective space"),
        ('{"n":2,"matrix":[[["1","0","0"],["0","1"]],[["0","0","0"],["0","0","1"]]]}',
         "expected 3 coefficients, got 2"),
        ('{"n":2,"matrix":[[[1.5,0,0],[0,1,0]],[[0,0,0],[0,0,1]]]}', "exact rational expected, got float"),
        ('{"n":2,"matrix":[[["1/0","0","0"],["0","1","0"]],[["0","0","0"],["0","0","1"]]]}',
         "malformed rational string: '1/0'"),
        ('{"n":2}', "'matrix'"),
        ('{"n":"3","matrix":[[["1","0","0","0"],["0","0","1","0"]],[["0","0","0","1"],["0","1","0","0"]]]}',
         "'n' must be an integer"),
        ('{"n":true,"matrix":[[["1","0"],["0","0"]],[["0","0"],["0","1"]]]}', "'n' must be an integer"),
        ('{"n":2.5,"matrix":[[["1","0","0"],["0","1","0"]],[["0","0","0"],["0","0","1"]]]}',
         "'n' must be an integer"),
    ])
    def test_parse_errors(self, doc, detail):
        for op in ("stability", "stratify"):
            assert cli_stdout(op, "--json", doc) == (1, json.dumps(
                {"detail": detail, "error": "parse_error"}, separators=(",", ":")) + "\n")
