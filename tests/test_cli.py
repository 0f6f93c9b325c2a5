import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from moriconic import PluckerConic
from moriconic.cli import MAX_POINCARE_DEGREE, main


DIAG_DOC = {
    "n": 3,
    "matrix": [
        [["1", "0", "0", "0"], ["0", "0", "0", "0"]],
        [["0", "0", "0", "0"], ["0", "1", "0", "0"]],
    ],
}

SCALAR_DOC = {
    "n": 3,
    "matrix": [
        [["1", "0", "0", "0"], ["0", "0", "0", "0"]],
        [["0", "0", "0", "0"], ["1", "0", "0", "0"]],
    ],
}

GENERIC_DOC = {
    "n": 3,
    "matrix": [
        [["1", "0", "0", "0"], ["0", "0", "1", "0"]],
        [["0", "0", "0", "1"], ["0", "1", "0", "0"]],
    ],
}

# [[x0, L(x1 + x2)], [L(2 x1 - x2), x0]]: the one-parameter degeneration whose
# wedge picks up a global factor of the parameter
DISK_FAMILY_DOC = {
    "n": 3,
    "matrix": [
        [[["1", "0", "0", "0"]], [["0", "0", "0", "0"], ["0", "1", "1", "0"]]],
        [[["0", "0", "0", "0"], ["0", "2", "-1", "0"]], [["1", "0", "0", "0"]]],
    ],
}


# the barycenter of the eq3 Gr(3, wedge^2 V) triangle; gt3 labels it G
EQ3_COMBO_DOC = {"coeffs": {"P": "1", "Dunb": "1", "Ddeg": "1"}, "n_mode": "eq3"}


@pytest.fixture
def no_polynomial(monkeypatch):
    """Fail any request that reaches the Poincare computation."""

    def refuse(space):
        raise AssertionError(f"a polynomial was computed for {space!r}")

    monkeypatch.setattr("moriconic.motivic.poincare", refuse)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPoincare:
    def test_t4_golden(self, capsys):
        code, out = run(capsys, "poincare", "--space", "T4", "--n", "3")
        assert code == 0
        assert json.loads(out) == {
            "schema_version": 1,
            "poly": ["1", "1", "2", "1", "1", "0", "1", "1", "1", "1"],
        }

    def test_gr(self, capsys):
        code, out = run(capsys, "poincare", "--space", "Gr", "--k", "2", "--N", "4")
        assert code == 0
        assert json.loads(out)["poly"] == ["1", "1", "2", "1", "1"]

    def test_mp2(self, capsys):
        code, out = run(capsys, "poincare", "--space", "MP2-4m+2")
        assert code == 0
        assert len(json.loads(out)["poly"]) == 18

    def test_sym2_inner(self, capsys):
        code, out = run(
            capsys, "poincare", "--space", "Sym2", "--inner", '{"space":"Pn","n":1}'
        )
        assert code == 0
        assert json.loads(out)["poly"] == ["1", "1", "1"]

    def test_stable_map_spaces(self, capsys):
        code, out = run(capsys, "poincare", "--space", "MbarP", "--n", "2")
        assert code == 0
        assert json.loads(out)["poly"] == ["1", "1", "1"]
        code, out = run(capsys, "poincare", "--space", "MbarGr", "--n", "3")
        assert code == 0
        assert json.loads(out)["poly"] == [str(c) for c in (1, 3, 7, 11, 14, 14, 11, 7, 3, 1)]

    def test_missing_n_is_parse_error(self, capsys):
        code, out = run(capsys, "poincare", "--space", "T4")
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_nested_sym2(self, capsys):
        inner = {"space": "Sym2", "inner": {"space": "Pn", "n": 1}}
        code, out = run(capsys, "poincare", "--space", "Sym2", "--inner", json.dumps(inner))
        assert code == 0
        # Sym2 P^1 = P^2, whose symmetric square has (p(q)^2 + p(q^2)) / 2 with p = 1 + q + q^2
        assert json.loads(out)["poly"] == ["1", "1", "2", "1", "1"]

    def test_deep_sym2_nesting_is_one_parse_error(self, capsys):
        depth = 2000  # deeper than the interpreter's recursion limit
        inner = '{"space":"Sym2","inner":' * depth + '{"space":"Pn","n":1}' + "}" * depth
        code, out = run(capsys, "poincare", "--space", "Sym2", "--inner", inner)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_sym2_nesting_bound(self, capsys, no_polynomial):
        # each Sym2 level doubles the degree: over P^1 the first level past
        # the cap has degree 2^bit_length(cap)
        inner = {"space": "Pn", "n": 1}
        for _ in range(MAX_POINCARE_DEGREE.bit_length() - 1):
            inner = {"space": "Sym2", "inner": inner}
        code, out = run(capsys, "poincare", "--space", "Sym2", "--inner", json.dumps(inner))
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize("flags", [
        ("Pn", "--n", str(MAX_POINCARE_DEGREE + 1)),
        ("Pn", "--n", str(10**30)),
        ("Gr", "--k", "2", "--N", str(MAX_POINCARE_DEGREE // 2 + 3)),
        ("MbarP", "--n", str(MAX_POINCARE_DEGREE // 3 + 2)),
        ("MbarGr", "--n", str(MAX_POINCARE_DEGREE // 4 + 1)),
        ("T4", "--n", str(MAX_POINCARE_DEGREE // 4 + 1)),
        ("Sym2", "--inner", json.dumps({"space": "Pn", "n": MAX_POINCARE_DEGREE // 2 + 1})),
        ("Sym2", "--inner", json.dumps({"space": "Gr", "k": 10**6, "N": 2 * 10**6})),
    ])
    def test_degree_cap_rejects_before_computing(self, capsys, no_polynomial, flags):
        code, out = run(capsys, "poincare", "--space", *flags)
        assert code == 1
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["error"] == "parse_error"
        assert str(MAX_POINCARE_DEGREE) in doc["detail"]

    @pytest.mark.parametrize("inner", [
        {"space": "Pn"},
        {"space": "Pn", "n": "3"},
        {"space": "Pn", "n": True},
        {"space": "Gr", "k": 2},
        {"space": "Sym2"},
        {"space": "P7", "n": 3},
        [1, 2],
    ])
    def test_malformed_identifier_is_parse_error(self, capsys, no_polynomial, inner):
        code, out = run(capsys, "poincare", "--space", "Sym2", "--inner", json.dumps(inner))
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize("base", [
        {"space": "Pn", "n": 0},
        {"space": "Gr", "k": 0, "N": 5},
        {"space": "Gr", "k": 7, "N": 5},
        {"space": "MbarP", "n": 1},
    ])
    @pytest.mark.parametrize("levels", [MAX_POINCARE_DEGREE.bit_length(), 900])
    def test_sym2_levels_bounded_at_degree_zero(self, capsys, no_polynomial, base, levels):
        # a degree <= 0 never grows, so the level count must be bounded by itself
        inner = json.dumps(base)
        for _ in range(levels - 1):
            inner = '{"space":"Sym2","inner":' + inner + "}"
        code, out = run(capsys, "poincare", "--space", "Sym2", "--inner", inner)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize("flags", [
        ("Pn", "--n", "-1"),
        ("Gr", "--k", "5", "--N", "3"),
        ("Gr", "--k", "-1", "--N", "3"),
        ("MbarP", "--n", "1"),
        ("MbarGr", "--n", "2"),
        ("T4", "--n", "2"),
        ("Sym2", "--inner", '{"space":"Pn","n":-1}'),
    ])
    def test_domain_precondition_is_parse_error(self, capsys, no_polynomial, flags):
        # an identifier outside its formula's domain names no space: exit 1, not 2
        code, out = run(capsys, "poincare", "--space", *flags)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_inner_ignored_beside_other_spaces(self, capsys):
        code, out = run(capsys, "poincare", "--space", "Pn", "--n", "1", "--inner", "{bad")
        assert code == 0
        assert json.loads(out)["poly"] == ["1", "1"]


class TestStability:
    def test_diagonal_golden(self, capsys):
        code, out = run(capsys, "stability", "--json", json.dumps(DIAG_DOC))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "strictly_semistable"
        assert doc["closed_orbit"] is True
        assert doc["stabilizer"] == "Cstar_Z2"
        assert doc["schema_version"] == 1

    def test_generic_stable(self, capsys):
        code, out = run(capsys, "stability", "--json", json.dumps(GENERIC_DOC))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "stable"
        assert doc["witness"] is None
        assert doc["stabilizer"] == "finite"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(DIAG_DOC))
        code, out = run(capsys, "stratify", "--in", str(path))
        assert code == 0
        assert json.loads(out) == {"schema_version": 1, "stratum": "Y1"}

    def test_malformed_module_is_parse_error(self, capsys):
        code, out = run(capsys, "stability", "--json", '{"n": 3, "matrix": []}')
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_deeply_nested_document_is_parse_error(self, capsys):
        doc = '{"n": 3, "matrix": ' + "[" * 5000 + "]" * 5000 + "}"
        code, out = run(capsys, "stability", "--json", doc)
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize("matrix", [
        [["100", "000"], ["000", "010"]],  # string entries, once read digit by digit
        [[["1", "0", "0"], ["0", "0", "0"]], "ab"],  # a string row
        "abcd",  # a string matrix
        [[{"0": 1, "1": 0, "2": 0}, ["0", "0", "0"]], [["0", "0", "0"], ["0", "1", "0"]]],
    ])
    def test_non_array_matrix_parts_are_parse_errors(self, capsys, matrix):
        doc = {"n": 2, "matrix": matrix}
        for subcommand in ("stability", "stratify", "conic"):
            code, out = run(capsys, subcommand, "--json", json.dumps(doc))
            assert code == 1
            assert json.loads(out)["error"] == "parse_error"


class TestConic:
    def test_generic_conic(self, capsys):
        code, out = run(capsys, "conic", "--json", json.dumps(GENERIC_DOC))
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 2
        assert doc["envelope"]["dim"] == 3
        PluckerConic.from_json({"n": doc["n"], "coords": doc["coords"]})

    def test_scalar_conic_is_domain_error(self, capsys):
        code, out = run(capsys, "conic", "--json", json.dumps(SCALAR_DOC))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "zero_conic"
        assert set(doc) == {"error", "detail"}


class TestModify:
    def test_disk_family(self, capsys):
        code, out = run(capsys, "modify", "--json", json.dumps(DISK_FAMILY_DOC))
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1
        # modified coordinates: p_{0,i} = b_i s^2 - a_i t^2 with a=(1,1,0), b=(2,-1,0)
        assert doc["conic"]["coords"]["0,1"] == ["2", "0", "-1"]
        assert doc["conic"]["coords"]["0,2"] == ["-1", "0", "-1"]
        assert doc["conic"]["coords"]["1,2"] == ["0", "0", "0"]
        assert doc["residual_base"]["gcd_degree"] == 0

    def test_identically_zero_is_domain_error(self, capsys):
        fam = {
            "n": 2,
            "matrix": [
                [[["1", "0", "0"]], [["0", "0", "0"], ["1", "0", "0"]]],
                [[["1", "0", "0"]], [["0", "0", "0"], ["1", "0", "0"]]],
            ],
        }
        code, out = run(capsys, "modify", "--json", json.dumps(fam))
        assert code == 2
        assert json.loads(out)["error"] == "identically_zero"

    @pytest.mark.parametrize("n, width", [(True, 2), (1, 2), (0, 1), ("3", 4), (3.0, 4)])
    def test_bad_n_is_parse_error(self, capsys, n, width):
        row = ["1"] + ["0"] * (width - 1)
        fam = {"n": n, "matrix": [[[row], [row]], [[row], [row]]]}
        code, out = run(capsys, "modify", "--json", json.dumps(fam))
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize("path, value", [
        ((0, 1, 1), "0110"),  # a coefficient list given as a string
        ((0, 1), "x"),  # an entry given as a string
        ((1,), "ab"),  # a row given as a string
        ((), "abcd"),  # the matrix given as a string
    ])
    def test_non_array_family_parts_are_parse_errors(self, capsys, path, value):
        fam = json.loads(json.dumps(DISK_FAMILY_DOC))
        target = fam["matrix"]
        if path:
            for i in path[:-1]:
                target = target[i]
            target[path[-1]] = value
        else:
            fam["matrix"] = value
        code, out = run(capsys, "modify", "--json", json.dumps(fam))
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"


class TestChamber:
    def test_tangency_wall(self, capsys):
        code, out = run(capsys, "chamber", "--coeffs", '{"T":"1","Delta":"1"}')
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == 4 and doc["model"] == "U"
        assert doc["cell"] == {"dim": 1, "generators": ["Delta", "T"]}

    def test_n_mode_eq3(self, capsys):
        code, out = run(
            capsys, "chamber", "--coeffs", '{"P":"1","Dunb":"1","Ddeg":"1"}',
            "--n-mode", "eq3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == 6 and doc["model"] == "Gr3w2V"

    def test_reflect_flag(self, capsys):
        code, out = run(capsys, "chamber", "--coeffs", '{"H11":"1"}', "--reflect")
        assert code == 0
        assert json.loads(out)["model"] == "K"

    def test_zero_divisor_exit_2(self, capsys):
        code, out = run(capsys, "chamber", "--coeffs", '{"T":"0"}')
        assert code == 2
        assert json.loads(out)["error"] == "zero_divisor"

    def test_rational_coefficients(self, capsys):
        code, out = run(capsys, "chamber", "--coeffs", '{"H11":"1","T":"2/3"}')
        assert code == 0
        assert json.loads(out)["case"] == 11

    def test_negative_coefficient_is_parse_error(self, capsys):
        code, out = run(capsys, "chamber", "--coeffs", '{"T":"-1"}')
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(EQ3_COMBO_DOC))
        code, out = run(capsys, "chamber", "--in", str(path))
        assert code == 0
        assert json.loads(out)["model"] == "Gr3w2V"

    def test_n_mode_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(EQ3_COMBO_DOC))
        code, out = run(capsys, "chamber", "--in", str(path), "--n-mode", "gt3")
        assert code == 0
        assert json.loads(out)["model"] == "G"

    @pytest.mark.parametrize("n_mode", [(), ("--n-mode", "eq3")])
    def test_coeffs_must_be_an_object(self, capsys, tmp_path, n_mode):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"coeffs": [1, 2]}))
        for source in (("--in", str(path)), ("--coeffs", "[1, 2]")):
            code, out = run(capsys, "chamber", *source, *n_mode)
            assert code == 1
            assert out.count("\n") == 1
            assert json.loads(out)["error"] == "parse_error"


class TestHarnessContract:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, out = run(capsys, "frobnicate")
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_parse_errors_repeat_in_one_process(self, capsys):
        # the argument parser is built once and reused by every call
        for argv in (["stability", "--bogus"], ["frobnicate"], ["stability", "--bogus"]):
            code, out = run(capsys, *argv)
            assert code == 1
            assert json.loads(out)["error"] == "parse_error"
        code, out = run(capsys, "stratify", "--json", json.dumps(DIAG_DOC))
        assert code == 0 and json.loads(out)["stratum"] == "Y1"

    def test_byte_determinism(self, capsys):
        _, first = run(capsys, "poincare", "--space", "MbarGr", "--n", "4")
        _, second = run(capsys, "poincare", "--space", "MbarGr", "--n", "4")
        assert first == second

        _, a = run(capsys, "stability", "--json", json.dumps(DIAG_DOC))
        _, b = run(capsys, "stability", "--json", json.dumps(DIAG_DOC))
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run(capsys, "poincare", "--space", "Pn", "--n", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"schema_version": 1, "poly": ["1", "1", "1"]}

    @pytest.mark.parametrize("coeffs", ['{"T":"1"}', '{"T":"0"}'])  # success, domain error
    def test_unwritable_out_is_one_error_document(self, capsys, tmp_path, coeffs):
        target = tmp_path / "missing" / "x.json"
        code, out = run(capsys, "chamber", "--coeffs", coeffs, "--out", str(target))
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "parse_error"
        assert not target.exists()

    def test_emitted_documents_reparse(self, capsys):
        for argv in (
            ["poincare", "--space", "Pn", "--n", "3"],
            ["stability", "--json", json.dumps(GENERIC_DOC)],
            ["chamber", "--coeffs", '{"H2":"1"}'],
            ["conic", "--json", json.dumps(GENERIC_DOC)],
        ):
            code, out = run(capsys, *argv)
            assert code == 0
            doc = json.loads(out)
            assert doc["schema_version"] == 1


# Documents with denominators and the exact stdout each produced when rationals
# were stored as Fractions: the integer storage must write the same bytes.
NON_INTEGER_CASES = [
    ('stability',
     '{"n":3,"matrix":[[["10/9","0","0","0"],["-2/3","0","0","0"]],[["0","8/9","0","0"],["0","2/3","0","0"]]]}',
     '{"closed_orbit":true,"schema_version":1,"stabilizer":"Cstar_Z2","verdict":"strictly_semistable","witness":{"form":null,"kind":"rank_drop","vector":["3/5","1"]}}\n'),
    ('stability',
     '{"n":3,"matrix":[[["1","0","0","0"],["0","-2/3","0","0"]],[["0","1/2","0","0"],["1","0","0","0"]]]}',
     '{"closed_orbit":true,"schema_version":1,"stabilizer":"Cstar_Z2","verdict":"strictly_semistable","witness":{"form":["3","0","4"],"kind":"gcd_certificate","vector":null}}\n'),
    ('stability',
     '{"n":3,"matrix":[[["1/2","0","0","0"],["0","0","0","0"]],[["-2/3","5/6","0","0"],["0","0","0","0"]]]}',
     '{"closed_orbit":null,"schema_version":1,"stabilizer":null,"verdict":"unstable","witness":{"form":null,"kind":"zero_column","vector":["0","1"]}}\n'),
    ('stability',
     '{"n":3,"matrix":[[["1","0","0","0"],["0","1/2","0","0"]],[["0","2/3","0","0"],["1","0","5/6","0"]]]}',
     '{"closed_orbit":true,"schema_version":1,"stabilizer":"finite","verdict":"stable","witness":null}\n'),
    ('conic',
     '{"n":3,"matrix":[[["1/2","0","0","0"],["0","0","-2/3","0"]],[["0","0","0","5/6"],["0","1","0","0"]]]}',
     '{"coords":{"0,1":["0","1/2","0"],"0,2":["0","0","0"],"0,3":["5/12","0","0"],"1,2":["0","0","2/3"],"1,3":["0","0","0"],"2,3":["0","-5/9","0"]},"degree":2,"envelope":{"basis":[["1","0","0","0","0","-10/9"],["0","0","1","0","0","0"],["0","0","0","1","0","0"]],"dim":3},"n":3,"schema_version":1}\n'),
    ('conic',
     '{"n":3,"matrix":[[["1/2","1/3","0","0"],["0","5/6","-2/3","0"]],[["0","-1/4","0","5/6"],["2/9","0","0","1/2"]]]}',
     '{"coords":{"0,1":["-1/8","-2/27","-5/27"],"0,2":["0","0","4/27"],"0,3":["5/12","1/4","0"],"1,2":["0","-1/6","0"],"1,3":["5/18","31/36","5/12"],"2,3":["0","-5/9","-1/3"]},"degree":2,"envelope":{"basis":[["1","0","0","-180","750","-600"],["0","1","0","-225","15045/16","-3009/4"],["0","0","1","-54","677/3","-180"]],"dim":3},"n":3,"schema_version":1}\n'),
    ('modify',
     '{"n":3,"matrix":[[[["1/2","0","0","0"]],[["0","0","0","0"],["0","-2/3","5/6","0"]]],[[["0","0","0","0"],["0","5/6","1/2","0"]],[["1/2","0","0","0"]]]]}',
     '{"conic":{"coords":{"0,1":["5/12","0","1/3"],"0,2":["1/4","0","-5/12"],"0,3":["0","0","0"],"1,2":["0","0","0"],"1,3":["0","0","0"],"2,3":["0","0","0"]},"n":3},"k":1,"residual_base":{"gcd":["1"],"gcd_degree":0,"rational_points":[]},"schema_version":1}\n'),
    ('modify',
     '{"n":3,"matrix":[[[["1/2","0","0","0"]],[["0","0","0","0"],["0","-2/3","0","0"]]],[[["0","0","0","0"],["0","5/6","0","0"],["0","0","1/2","0"]],[["0","1/2","0","0"]]]]}',
     '{"conic":{"coords":{"0,1":["0","1/4","0"],"0,2":["0","0","0"],"0,3":["0","0","0"],"1,2":["0","0","0"],"1,3":["0","0","0"],"2,3":["0","0","0"]},"n":3},"k":0,"residual_base":{"gcd":["0","1","0"],"gcd_degree":2,"rational_points":[["1","0"],["0","1"]]},"schema_version":1}\n'),
]


@pytest.mark.parametrize("command, doc, expected", NON_INTEGER_CASES)
def test_non_integer_documents_byte_identical(capsys, command, doc, expected):
    code, out = run(capsys, command, "--json", doc)
    assert code == 0
    assert out == expected


# Arbitrary JSON, with keys and strings drawn often enough from the documents'
# own vocabulary that some of it gets past the first check.
KEYS = st.sampled_from(["n", "matrix", "coeffs", "n_mode", "space", "inner", "k", "N", "T"])
STRINGS = st.sampled_from(["0", "1", "-1/2", "1/0", "x", "", "eq3", "Pn", "Sym2"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | STRINGS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS | st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12,
)
COEFFS = st.sampled_from(["0", "0", "0", "1", "-1", "2", "1/2", "-3/4", "5/6"])
GENERATORS = st.sampled_from(["Dunb", "Ddeg", "Delta", "T", "H11", "H2", "P"])
SPACES = st.recursive(
    st.fixed_dictionaries({
        "space": st.sampled_from(["Pn", "Gr", "MbarP", "MbarGr", "T4", "MP2-4m+2"]),
        "n": st.integers(-1, 12), "k": st.integers(-1, 6), "N": st.integers(-1, 12),
    }),
    lambda inner: st.fixed_dictionaries({"space": st.just("Sym2"), "inner": inner}),
    max_leaves=3,
)


@st.composite
def module_docs(draw, family):
    """A module (or family) document, sometimes with one part replaced by any JSON."""
    n = draw(st.integers(2, 4))
    form = st.lists(COEFFS, min_size=n + 1, max_size=n + 1)
    entry = st.lists(form, min_size=1, max_size=3) if family else form
    matrix = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2))
    doc = {"n": n, "matrix": matrix}
    where = draw(st.sampled_from(["nothing"] * 4 + ["n", "matrix", "row", "entry"]))
    if where in ("n", "matrix"):
        doc[where] = draw(JSON)
    elif where == "row":
        matrix[draw(st.integers(0, 1))] = draw(JSON)
    elif where == "entry":
        matrix[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(JSON)
    return doc


@st.composite
def requests(draw):
    """argv for one request of any subcommand: inline JSON of a plausible shape
    or of any shape, or now and then text that is not JSON at all."""
    subcommand = draw(st.sampled_from(["poincare", "stability", "stratify", "conic", "modify",
                                       "chamber"]))
    shaped = {"poincare": SPACES, "chamber": st.dictionaries(GENERATORS, COEFFS, max_size=4)}
    shape = shaped[subcommand] if subcommand in shaped else module_docs(subcommand == "modify")
    doc = draw(shape | JSON)
    as_json = draw(st.sampled_from([True] * 7 + [False]))
    text = json.dumps(doc) if as_json else draw(st.text(max_size=12))
    if subcommand == "poincare":
        space = draw(st.sampled_from(["Sym2", "Pn", "Gr", "MbarP", "MbarGr", "T4", "MP2-4m+2"]))
        flags = [f for name in ("--n", "--k", "--N") if draw(st.booleans())
                 for f in (name, str(draw(st.integers(-2, 40))))]
        return ["poincare", "--space", space, *flags, "--inner", text]
    if subcommand == "chamber":
        extra = draw(st.sampled_from([[], ["--n-mode", "eq3"], ["--n-mode", "gt3"], ["--reflect"]]))
        return ["chamber", "--coeffs", text, *extra]
    return [subcommand, "--json", text]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(requests())
def test_any_request_gives_one_json_document(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert isinstance(doc, dict)
    assert ("error" in doc) == (code != 0)
