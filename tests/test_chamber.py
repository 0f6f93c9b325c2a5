import json
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import pytest

from moriconic import (
    ChamberVerdict,
    DivisorCombo,
    NMode,
    ZeroDivisor,
    build_complex,
    duality_reflect,
    resolve,
)
from moriconic import cli
from moriconic.chamber import _CELLS, _TEXTS, GENERATORS, Cell, chamber_text

from conftest import COORDS, cli_stdout, ref_stdout, reference_resolve, reference_to_json

# (case, model, positive generators, optional generators) per item of the
# generic (n > 3) table.
GT3_ITEMS = [
    (1, "M", ("H11", "H2", "T"), ()),
    (2, "C", ("H11", "H2"), ()),
    (3, "H", ("H11", "H2", "P"), ()),
    (4, "U", ("T",), ("Delta",)),
    (5, "K", ("H2",), ("Ddeg", "Delta")),
    (6, "X1modG", ("H2", "T"), ("Delta",)),
    (7, "Gtilde", ("H2", "P"), ("Ddeg",)),
    (8, "G", ("Dunb", "P"), ("Ddeg",)),
    (9, "B", ("H11", "P", "Dunb"), ()),
    (10, "KS", ("H11", "Dunb"), ("Delta",)),
    (11, "R", ("H11", "T"), ("Delta",)),
    (12, "L", ("H11",), ("Delta",)),
    (13, "Gbar", ("P",), ("Ddeg",)),
    (14, "Ghat", ("H11", "P"), ()),
    (15, "Point", (), ("Delta", "Ddeg")),
    # the last item is a union of two cones, sampled separately
    (16, "Gr4Vdual", ("Dunb",), ("Delta",)),
    (16, "Gr4Vdual", ("Dunb",), ("Ddeg",)),
]

# Same for the self-dual (n = 3) table; item 12 covers the whole boundary of
# the effective cone, sampled separately below.
EQ3_ITEMS = [
    (1, "M", ("H11", "H2", "T"), ()),
    (2, "H", ("H11", "H2", "P"), ()),
    (3, "K", ("H2",), ("Ddeg", "Delta")),
    (4, "X1modG", ("H2", "T"), ("Delta",)),
    (5, "BlG_sigma11", ("H2", "P"), ("Ddeg",)),
    (6, "Gr3w2V", ("P",), ("Dunb", "Ddeg")),
    (7, "BlG_sigma2", ("H11", "P"), ("Dunb",)),
    (8, "Kstar", ("H11",), ("Dunb", "Delta")),
    (9, "X1modG_star", ("H11", "T"), ("Delta",)),
    (10, "U", ("T",), ("Delta",)),
    (11, "C", ("H11", "H2"), ()),
]

GENERATOR_SWAP = {"Dunb": "Ddeg", "Ddeg": "Dunb", "H11": "H2", "H2": "H11"}

EQ3_SWAP = {
    "M": "M",
    "H": "H",
    "U": "U",
    "C": "C",
    "Point": "Point",
    "K": "Kstar",
    "Kstar": "K",
    "X1modG": "X1modG_star",
    "X1modG_star": "X1modG",
    "BlG_sigma11": "BlG_sigma2",
    "BlG_sigma2": "BlG_sigma11",
    "Gr3w2V": "Gr3w2V",
}


def combo(coeffs, mode=NMode.GT3):
    return DivisorCombo.make(coeffs, mode)


def sample_item(rng, positive, optional, mode):
    coeffs = {g: Fraction(rng.randint(1, 12), rng.randint(1, 4)) for g in positive}
    for g in optional:
        roll = rng.random()
        if roll < 0.4:
            coeffs[g] = Fraction(0)
        else:
            coeffs[g] = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    if not any(coeffs.values()):
        # items made of optional generators only need at least one positive
        g = rng.choice(list(optional))
        coeffs[g] = Fraction(rng.randint(1, 12))
    return combo(coeffs, mode)


class TestGeometry:
    def test_cell_counts(self):
        for mode in (NMode.GT3, NMode.EQ3):
            cx = build_complex(mode)
            assert len(cx.triangles) == 9
            assert len(cx.edges) == 15
            assert len(cx.vertices) == 7

    @pytest.mark.parametrize("mode", tuple(NMode))
    def test_every_face_is_labelled_once(self, mode):
        # resolve looks up the cell it finds; a face missing from the table
        # would turn a valid combination into a parse error
        cx = build_complex(mode)
        triangles = {gens for gens, _ in cx.triangles}
        assert triangles == {gens for gens, _ in build_complex(NMode.GT3).triangles}
        assert all(len(gens) == 3 and gens <= set(GENERATORS) for gens in triangles)
        faces = {frozenset(f) for t in triangles for k in (1, 2, 3) for f in combinations(t, k)}
        labelled = [frozenset({g}) for g, _ in cx.vertices] + [gens for gens, _ in cx.edges] + list(triangles)
        assert len(faces) == len(labelled) == 31
        assert set(labelled) == faces

    @pytest.mark.parametrize("mode", tuple(NMode))
    def test_one_case_and_description_per_model(self, mode):
        cx = build_complex(mode)
        labels = {label for _, label in cx.vertices + cx.edges + cx.triangles}
        by_model, by_case = defaultdict(set), defaultdict(set)
        for case, model, description in labels:
            by_model[model].add((case, description))
            by_case[case].add(model)
        assert all(len(v) == 1 for v in by_model.values())
        assert all(len(v) == 1 for v in by_case.values())

    def test_collinearities(self):
        dunb, h11, t = COORDS["Dunb"], COORDS["H11"], COORDS["T"]
        assert h11 == ((dunb[0] + t[0]) / 2, (dunb[1] + t[1]) / 2)
        ddeg, h2 = COORDS["Ddeg"], COORDS["H2"]
        cross = (h2[0] - ddeg[0]) * (t[1] - ddeg[1]) - (h2[1] - ddeg[1]) * (t[0] - ddeg[0])
        assert cross == 0

    def test_p_is_the_segment_intersection(self):
        assert COORDS["P"] == (Fraction(5), Fraction(14, 9))

    def test_triangles_partition_by_area(self):
        # the 9 triangles tile the big simplex: areas add up
        def area2(a, b, c):
            return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

        cx = build_complex(NMode.GT3)
        total = sum(
            area2(*(COORDS[g] for g in gens)) for gens, _ in cx.triangles
        )
        assert total == area2(COORDS["Dunb"], COORDS["Ddeg"], COORDS["Delta"])


class TestResolveExamples:
    def test_interior_is_the_space_itself(self):
        v = resolve(combo({"H11": 1, "H2": 1, "T": 1}))
        assert (v.case_id, v.model) == (1, "M")
        assert v.cell.dim == 2

    def test_tangency_wall(self):
        v = resolve(combo({"T": 1, "Delta": 1}))
        assert (v.case_id, v.model) == (4, "U")
        assert v.cell.dim == 1

    def test_unbalanced_vertex(self):
        v = resolve(combo({"Dunb": 1}))
        assert (v.case_id, v.model) == (16, "Gr4Vdual")
        assert v.cell.dim == 0 and v.cell.generators == ("Dunb",)

    def test_envelope_edge(self):
        v = resolve(combo({"P": 2, "Ddeg": 3}))
        assert (v.case_id, v.model) == (13, "Gbar")

    def test_eq3_grassmannian_triangle(self):
        v = resolve(combo({"P": 1, "Dunb": 1, "Ddeg": 1}, NMode.EQ3))
        assert (v.case_id, v.model) == (6, "Gr3w2V")

    def test_vertices(self):
        assert resolve(combo({"T": 7})).model == "U"
        assert resolve(combo({"H11": 2})).model == "L"
        assert resolve(combo({"H2": 2})).model == "K"
        assert resolve(combo({"P": 1})).model == "Gbar"
        assert resolve(combo({"Delta": 1})).model == "Point"

    def test_collinear_combination_hits_the_middle_generator(self):
        # the fixed coordinates place H11 at the midpoint of Dunb-T, so this
        # mixed combination resolves to the vertex H11 exactly
        v = resolve(combo({"Dunb": 1, "T": 1}))
        assert v.cell.dim == 0 and v.cell.generators == ("H11",)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            resolve(combo({"T": 0}))

    def test_negative_rejected_at_parse(self):
        with pytest.raises(ValueError):
            combo({"T": -1})

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            combo({"X": 1})

    @pytest.mark.parametrize("coeffs, detail", [
        ({"T": -1, "X": 1}, "unknown divisor generator: 'X'"),
        ({"T": "-1", "H2": "1/0"}, "malformed rational string: '1/0'"),
        ({"H2": "y", "Z": "1"}, "unknown divisor generator: 'Z'"),
    ])
    def test_faults_of_two_kinds_report_the_earlier_kind(self, coeffs, detail):
        # the later kind comes first in the document, and is not the one reported
        with pytest.raises(ValueError) as info:
            DivisorCombo.make(coeffs)
        assert str(info.value) == detail

    def test_coeffs_must_be_a_mapping(self):
        with pytest.raises(ValueError):
            DivisorCombo.make([1, 2])
        with pytest.raises(ValueError):
            DivisorCombo.from_json({"coeffs": [1, 2]})


class TestItemConformance:
    @pytest.mark.parametrize("case,model,positive,optional", GT3_ITEMS)
    def test_gt3_items(self, case, model, positive, optional):
        rng = random.Random(1000 + case)
        for _ in range(30):
            v = resolve(sample_item(rng, positive, optional, NMode.GT3))
            assert (v.case_id, v.model) == (case, model)

    @pytest.mark.parametrize("case,model,positive,optional", EQ3_ITEMS)
    def test_eq3_items(self, case, model, positive, optional):
        rng = random.Random(2000 + case)
        for _ in range(30):
            v = resolve(sample_item(rng, positive, optional, NMode.EQ3))
            assert (v.case_id, v.model) == (case, model)

    def test_eq3_effective_boundary_is_a_point(self):
        rng = random.Random(3)
        extremes = ("Dunb", "Ddeg", "Delta")
        for _ in range(60):
            pair = rng.sample(extremes, rng.choice([1, 2]))
            coeffs = {g: Fraction(rng.randint(1, 9)) for g in pair}
            v = resolve(combo(coeffs, NMode.EQ3))
            assert (v.case_id, v.model) == (12, "Point")

    def test_barycenters_hit_their_triangle(self):
        for mode in (NMode.GT3, NMode.EQ3):
            cx = build_complex(mode)
            for gens, (case, model, _) in cx.triangles:
                v = resolve(combo({g: 1 for g in gens}, mode))
                assert (v.case_id, v.model) == (case, model)

    def test_edge_midpoints_hit_their_edge(self):
        for mode in (NMode.GT3, NMode.EQ3):
            cx = build_complex(mode)
            for gens, (case, model, _) in cx.edges:
                v = resolve(combo({g: 1 for g in gens}, mode))
                assert (v.case_id, v.model) == (case, model)
                assert v.cell.dim == 1


class TestDuality:
    def test_generator_swaps(self):
        assert duality_reflect(combo({"H11": 1})).coefficient("H2") == 1
        assert duality_reflect(combo({"Delta": 1})).coefficient("Delta") == 1
        d = duality_reflect(combo({"Dunb": 2, "T": 1}))
        assert d.coefficient("Ddeg") == 2 and d.coefficient("T") == 1
        assert d.coefficient("Dunb") == 0

    def test_involution(self):
        rng = random.Random(17)
        for _ in range(50):
            coeffs = {g: Fraction(rng.randint(0, 5)) for g in GENERATORS}
            if not any(coeffs.values()):
                coeffs["T"] = Fraction(1)
            d = combo(coeffs)
            assert duality_reflect(duality_reflect(d)) == d
            swapped = {GENERATOR_SWAP.get(g, g): v for g, v in coeffs.items()}
            assert duality_reflect(d) == DivisorCombo.make(swapped, d.n_mode)

    def test_eq3_conjugation(self):
        rng = random.Random(23)
        for _ in range(300):
            coeffs = {g: Fraction(rng.randint(0, 4)) for g in GENERATORS}
            if not any(coeffs.values()):
                continue
            d = combo(coeffs, NMode.EQ3)
            direct = resolve(d).model
            reflected = resolve(duality_reflect(d)).model
            assert reflected == EQ3_SWAP[direct]


class TestTotality:
    def test_every_valid_combo_lands_in_one_cell(self):
        rng = random.Random(99)
        for i in range(10000):
            coeffs = {
                g: Fraction(rng.randint(0, 20), rng.randint(1, 5)) for g in GENERATORS
            }
            if not any(coeffs.values()):
                continue
            mode = NMode.GT3 if i % 2 else NMode.EQ3
            v = resolve(combo(coeffs, mode))
            assert v.cell.dim in (0, 1, 2)

    def test_json_round_trip(self):
        d = combo({"H11": Fraction(1, 3), "T": 2}, NMode.EQ3)
        assert DivisorCombo.from_json(d.to_json()) == d


# Generators on one line of the cross-section (collinear triples included) and
# single generators, so that walls and vertices come up as often as triangles.
SUPPORTS = (
    GENERATORS,
    ("Dunb", "H11", "T"), ("Ddeg", "H2", "T"), ("Dunb", "P", "H2"), ("Ddeg", "P", "H11"),
    ("Delta", "T", "P"), ("Dunb", "Ddeg"), ("Dunb", "Delta"), ("Ddeg", "Delta"), ("H11", "H2"),
    ("H11", "Delta"), ("H2", "Delta"),
    *((g,) for g in GENERATORS),
)
WEIGHTS = (0, 0, 0, 1, 1, 2, 3, 5, 12)


def seeded_nums(rng) -> tuple[int, ...]:
    """Seven numerators, zero off a support drawn from SUPPORTS; all zero at times."""
    support = rng.choice(SUPPORTS)
    weights = dict(zip(support, rng.choices(WEIGHTS, k=len(support))))
    return tuple(weights.get(g, 0) for g in GENERATORS)


class TestTables:
    def test_cells_are_written_in_generator_order(self):
        for cells in _CELLS.values():
            assert all(list(gens) == sorted(gens, key=GENERATORS.index) for gens in cells)

    def test_every_cell_text_is_the_encoded_verdict(self):
        for mode in NMode:
            assert len(_TEXTS[mode]) == len(_CELLS[mode]) == 31
            for gens, (case, model, desc) in _CELLS[mode].items():
                verdict = ChamberVerdict(case, model, desc, Cell(len(gens) - 1, gens))
                assert _TEXTS[mode][gens] == cli._encode({"schema_version": 1, **reference_to_json(verdict)})

    def test_locator_matches_the_orientation_loop(self):
        rng = random.Random(2022)
        for i in range(20000):
            d = DivisorCombo(seeded_nums(rng), rng.randint(1, 3), (NMode.GT3, NMode.EQ3)[i % 2])
            if i % 4 >= 2:
                d = duality_reflect(d)
            if not any(d.nums):
                with pytest.raises(ZeroDivisor):
                    resolve(d)
                continue
            expected = reference_resolve(d)
            assert resolve(d) == expected
            assert chamber_text({**d.to_json(), "reflect": False}) is _TEXTS[d.n_mode][expected.cell.generators]

    def test_signed_numerators_match_the_orientation_loop(self):
        # a DivisorCombo built directly may hold negative numerators: the same
        # cross-section point, the same ZeroDivisor, the same escape
        rng = random.Random(2023)
        for _ in range(500):
            d = DivisorCombo(tuple(rng.randint(-3, 3) for _ in GENERATORS), 1)
            try:
                expected = reference_resolve(d)
            except (ZeroDivisor, AssertionError) as exc:
                with pytest.raises(type(exc)):
                    resolve(d)
            else:
                assert resolve(d) == expected

    def test_cli_documents_match_the_reference(self):
        rng = random.Random(2024)
        for i in range(600):
            nums = seeded_nums(rng)
            coeffs = {g: str(k) for g, k in zip(GENERATORS, nums) if k or rng.random() < 0.2}
            mode, reflect = ("gt3", "eq3")[i % 2], i % 4 >= 2
            argv = ["chamber", "--coeffs", json.dumps(coeffs), "--n-mode", mode, *["--reflect"] * reflect]
            d = DivisorCombo(nums, 1, NMode(mode))
            if reflect:
                d = duality_reflect(d)
            if not any(nums):
                expected = (2, '{"detail":"all divisor coefficients vanish","error":"zero_divisor"}\n')
            else:
                expected = (0, ref_stdout(reference_to_json(reference_resolve(d))))
            assert cli_stdout(*argv) == expected
        for coeffs in ('{"T":"-1"}', '{"Bogus":"1"}', '{"T":"x"}', "[1]"):
            code, out = cli_stdout("chamber", "--coeffs", coeffs, "--reflect")
            assert code == 1 and json.loads(out)["error"] == "parse_error"
