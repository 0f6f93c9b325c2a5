import contextlib
import io
import json
import os
import random
import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from moriconic import (
    KroneckerModule,
    LambdaFamily,
    PluckerConic,
    cokernel_kind,
    family_conic,
    pencil_matrix,
    plucker_conic,
)
import moriconic
from moriconic import cli, motivic
from moriconic.cli import main
from moriconic.motivic import MAX_POINCARE_DEGREE
from moriconic.wire import JsonText

from conftest import ReferenceHelp, ReferenceRefused, ref_minors, ref_rref, ref_stdout, reference_argv


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


def parse_error_stdout(detail: str) -> str:
    """The exact stdout of a request refused with a parse error."""
    return '{"detail":"' + detail + '","error":"parse_error"}\n'


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

    @pytest.mark.parametrize("flags, detail", [
        (("Pn", "--n", "-1"), "projective space dimension must be >= 0"),
        (("Gr", "--k", "3", "--N", "2"), "need 0 <= k <= N"),
        (("MbarP", "--n", "1"), "need n >= 2"),
        (("MbarGr", "--n", "2"), "need n >= 3"),
        (("T4", "--n", "2"), "the double symmetroid needs n >= 3"),
        (("Sym2", "--inner", '{"space":"T4","n":2}'), "the double symmetroid needs n >= 3"),
        (("Sym2", "--inner", "[]"), "space identifier must be an object with a 'space' key"),
        (("Sym2",), "space Sym2 requires an 'inner' space identifier"),
        (("Sym2", "--inner", '{"space":"Q"}'), "unknown space identifier 'Q'"),
        (("Sym2", "--inner", '{"space":"Gr","k":2,"N":true}'), "space Gr requires an integer 'N'"),
        (("T4", "--n", "5000"), f"the Poincare polynomial would exceed degree {MAX_POINCARE_DEGREE}"),
        (("Sym2", "--inner="), "space Sym2 requires an 'inner' space identifier"),
        (("Sym2", "--inner", '{"space":"Sym2"}'), "space Sym2 requires an 'inner' space identifier"),
    ])
    def test_identifier_refusal_bytes(self, capsys, no_polynomial, flags, detail):
        assert run(capsys, "poincare", "--space", *flags) == (1, parse_error_stdout(detail))

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

    @pytest.mark.parametrize("entries", [
        ("1\n", "\u0661"),  # a trailing newline and an Arabic-Indic one
        ("1", "-\u0661\u0662"),
        ("1/2\n", "1"),
        ("\uff11", "1"),  # a fullwidth one
    ])
    def test_non_ascii_number_grammar_is_parse_error(self, capsys, entries):
        doc = json.loads(json.dumps(GENERIC_DOC))
        doc["matrix"][0][0][0], doc["matrix"][1][0][3] = entries
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

    @pytest.mark.parametrize("n, matrix", [
        (10**6, [[[], []], [[], []]]),  # no coefficient at all
        (3, [[[["0", "0", "0", "0"]], []], [[["1", "0", "0", "0"]], [["0", "1", "0", "0"]]]]),
        (10**12, [[[], []], [[], []]]),  # n bounded by nothing in the document
        (2**70, [[[], []], [[], []]]),
    ])
    def test_zero_row_family_builds_no_minor(self, capsys, monkeypatch, n, matrix):
        def refuse(*rows):
            raise AssertionError("a minor term was added")

        monkeypatch.setattr("moriconic.plucker._part_minors", refuse)
        code, out = run(capsys, "modify", "--json", json.dumps({"n": n, "matrix": matrix}))
        assert code == 2
        assert json.loads(out) == {
            "error": "identically_zero", "detail": "the wedge of the family vanishes for every lambda",
        }

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

    def test_document_n_mode_is_honoured_and_reflect_ignored(self, capsys, tmp_path):
        # the document's own n_mode holds unless --n-mode is given; its reflect
        # key is overwritten, since --reflect is a flag only
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"coeffs": {"H11": "1"}, "n_mode": "eq3", "reflect": True}))
        for flags, model in (((), "Kstar"), (("--reflect",), "K"), (("--n-mode", "gt3"), "L")):
            code, out = run(capsys, "chamber", "--in", str(path), *flags)
            assert code == 0
            assert json.loads(out)["model"] == model

    @pytest.mark.parametrize("value", ["1\n", "\u0663", "2/\u0663", "\uff11"])
    def test_non_ascii_coefficient_is_parse_error(self, capsys, value):
        code, out = run(capsys, "chamber", "--coeffs", json.dumps({"T": value}))
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize(
        "coeffs,detail",
        [
            # one fault each: the detail names it
            ("[1, 2]", "coeffs must be a JSON object of generator coefficients"),
            ('{"Bogus":"1"}', "unknown divisor generator: 'Bogus'"),
            ('{"T":"x"}', "malformed rational string: 'x'"),
            ('{"T":"-1"}', "coefficient of T must be nonnegative"),
            # two faults: unknown generator, then malformed, then negative
            ('{"T":"x","Bogus":"1"}', "unknown divisor generator: 'Bogus'"),
            ('{"T":"-1","Bogus":"1"}', "unknown divisor generator: 'Bogus'"),
            ('{"T":"-1","H2":"x"}', "malformed rational string: 'x'"),
            ('{"T":"-1","H2":1.5}', "exact rational expected, got float"),
            # two faults of one kind: the first in document order
            ('{"Foo":"1","Bar":"1"}', "unknown divisor generator: 'Foo'"),
            ('{"T":"y","H2":"x"}', "malformed rational string: 'y'"),
            ('{"H2":"-2","T":"-1"}', "coefficient of H2 must be nonnegative"),
        ],
    )
    def test_fault_order(self, capsys, coeffs, detail):
        code, out = run(capsys, "chamber", "--coeffs", coeffs)
        assert code == 1
        assert json.loads(out) == {"error": "parse_error", "detail": detail}

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
        # every subcommand, a domain error and a parse error with non-ASCII detail:
        # each member and key where one json.dumps of the whole document puts it
        for argv, expected_code in (
            (["poincare", "--space", "T4", "--n", "20"], 0),
            (["stability", "--json", json.dumps(GENERIC_DOC)], 0),
            (["stratify", "--json", json.dumps(DIAG_DOC)], 0),
            (["conic", "--json", json.dumps(GENERIC_DOC)], 0),
            (["modify", "--json", json.dumps(DISK_FAMILY_DOC)], 0),
            (["chamber", "--coeffs", '{"H11":"2/3","T":"1"}', "--n-mode", "eq3"], 0),
            (["conic", "--json", json.dumps(SCALAR_DOC)], 2),
            (["poincare", "--space", "Pn", "--n", "\uff13"], 1),
        ):
            code, out = run(capsys, *argv)
            assert code == expected_code
            doc = json.loads(out)
            assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            assert doc.get("schema_version") == (1 if code == 0 else None)
            if code == 0:
                assert isinstance(cli._run(argv[0], cli._read_argv(argv)[1]), JsonText)

    @pytest.mark.parametrize("argv", [
        ["stability", "--in="],
        ["stability", "--in", ""],
        ["chamber", "--in="],
        ["chamber", "--in=", "--n-mode", "eq3"],
    ])
    def test_empty_in_path_names_the_missing_file(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "parse_error"
        assert doc["detail"].endswith("No such file or directory: ''")


# Each subcommand's flags, in the order its usage line lists them.
COMMANDS = {
    "poincare": ["--space", "--n", "--k", "--N", "--inner", "--out"],
    "stability": ["--in", "--json", "--out"],
    "stratify": ["--in", "--json", "--out"],
    "conic": ["--in", "--json", "--out"],
    "modify": ["--in", "--json", "--out"],
    "chamber": ["--coeffs", "--in", "--n-mode", "--reflect", "--out"],
}

# Each subcommand's usage line, exactly.
USAGE = {
    "poincare": "moriconic poincare --space {Pn,Gr,MbarP,MbarGr,T4,MP2-4m+2,Sym2} [--n INT] [--k INT] [--N INT]"
                " [--inner INNER] [--out OUT]",
    "stability": "moriconic stability (--in IN | --json JSON) [--out OUT]",
    "stratify": "moriconic stratify (--in IN | --json JSON) [--out OUT]",
    "conic": "moriconic conic (--in IN | --json JSON) [--out OUT]",
    "modify": "moriconic modify (--in IN | --json JSON) [--out OUT]",
    "chamber": "moriconic chamber (--coeffs COEFFS | --in IN) [--n-mode {gt3,eq3}] [--reflect] [--out OUT]",
}


class TestFlagReader:
    @pytest.mark.parametrize("argv, ops", [
        (["-h"], list(COMMANDS)),
        (["--help"], list(COMMANDS)),
        (["frobnicate", "--help"], list(COMMANDS)),
        (["stability", "-h"], ["stability"]),
        (["chamber", "--coeffs", '{"T":"1"}', "--help"], ["chamber"]),
        (["poincare", "--bogus", "-h", "--space"], ["poincare"]),
    ])
    def test_help_is_one_usage_document(self, capsys, argv, ops):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert set(doc) == {"schema_version", "usage"} and doc["schema_version"] == 1
        lines = doc["usage"].split("\n")
        assert [line.split()[:2] for line in lines] == [["moriconic", op] for op in ops]

    @pytest.mark.parametrize("argv, ops", [(["-h"], list(USAGE)), *[([op, "-h"], [op]) for op in USAGE]])
    def test_usage_document_bytes(self, capsys, argv, ops):
        usage = "\\n".join(USAGE[op] for op in ops)
        assert run(capsys, *argv) == (0, '{"schema_version":1,"usage":"' + usage + '"}\n')

    @pytest.mark.parametrize("argv, detail", [
        ([], "expected a subcommand, one of poincare, stability, stratify, conic, modify, chamber"),
        (["frobnicate"], "expected a subcommand, one of poincare, stability, stratify, conic, modify, chamber"),
        (["stability", "--bogus"], "unknown flag '--bogus'"),
        (["stability", "--json", "{}", "stray"], "unexpected argument 'stray'"),
        (["chamber", "--coeffs", '{"T":"1"}', "--reflect=1"], "--reflect takes no value"),
        (["poincare", "--space"], "--space expects a value"),
        (["poincare", "--space", "Pn", "--n", "x"], "--n expects an integer, got 'x'"),
        (["poincare", "--space", "Q"], "--space must be one of Pn, Gr, MbarP, MbarGr, T4, MP2-4m+2, Sym2, got 'Q'"),
        (["stability"], "--in or --json is required"),
        (["poincare", "--n", "3"], "--space is required"),
        (["chamber"], "--coeffs or --in is required"),
        (["stability", "--in", "x", "--json", "{}"], "--in and --json exclude each other"),
    ])
    def test_refusal_bytes(self, capsys, argv, detail):
        assert run(capsys, *argv) == (1, parse_error_stdout(detail))

    def test_usage_names_every_flag(self, capsys):
        for op, names in COMMANDS.items():
            _, out = run(capsys, op, "-h")
            assert re.findall(r"--[\w-]+", json.loads(out)["usage"]) == names

    def test_runner_table_names_one_function_per_subcommand(self):
        for _, _, _, module, name in cli._COMMANDS.values():
            assert module in moriconic._EXPORTS
            assert callable(getattr(getattr(moriconic, module), name))
        # the --space choices are the one fact that cli and motivic both hold
        assert cli._COMMANDS["poincare"][0]["--space"][1] == (*motivic._SPACES, "Sym2")

    @pytest.mark.parametrize("value", ["\uff13", " 3_0 ", "3_0", "+3", " 3", "3\n", "\u0663", "-\u0663",
                                       "1.5", "", "0x3", "3e0"])
    def test_integer_flags_read_ascii_digits_only(self, capsys, no_polynomial, value):
        for argv in (["--n", value], [f"--n={value}"]):
            code, out = run(capsys, "poincare", "--space", "T4", *argv)
            assert code == 1
            assert json.loads(out)["error"] == "parse_error"

    @pytest.mark.parametrize("argv, poly", [
        (["--space", "Gr", "--k", "-0", "--N", "2"], ["1"]),
        (["--space", "Pn", "--n", "007"], ["1"] * 8),
        (["--space=Pn", "--n=2"], ["1", "1", "1"]),
        (["--space", "Pn", "--n", "5", "--n", "2"], ["1", "1", "1"]),  # the last occurrence wins
        (["--space", "T4", "--space", "Pn", "--n=1"], ["1", "1"]),
        (["--inner=", "--space", "Pn", "--n", "1"], ["1", "1"]),
    ])
    def test_flag_forms(self, capsys, argv, poly):
        code, out = run(capsys, "poincare", *argv)
        assert (code, json.loads(out)) == (0, {"schema_version": 1, "poly": poly})

    @pytest.mark.parametrize("argv", [
        ["poincare", "--sp", "T4", "--n", "3"],  # prefix abbreviations are not flags
        ["chamber", "--coeffs", '{"T":"1"}', "--n", "eq3"],
        ["poincare", "--space", "Sym2", "--in", '{"space":"Pn","n":1}'],
        ["stability", "--js", json.dumps(GENERIC_DOC)],
        ["stability", "--json", "-1.5"],  # a value in its own token starts with - only as an integer
        ["stability", "--json", "-"],
        ["poincare", "--space", "Pn", "--n", "1", "--inner", "-x y"],
        ["chamber", "--coeffs", '{"T":"1"}', "--out", "-x"],
        ["stability", "--json"],  # a missing value
        ["stability", "--json", "--out", "x"],
        ["stability", "--json", json.dumps(GENERIC_DOC), "extra"],  # a stray positional
        ["chamber", "--coeffs", '{"T":"1"}', "--reflect=1"],
        ["chamber", "--coeffs", '{"T":"1"}', "--n-mode", "eq"],  # a bad choice
        ["poincare", "--n", "3"],  # a missing required flag
        ["chamber", "--coeffs", '{"T":"1"}', "--in", "x.json"],  # exclusive flags together
        ["stability", "--", "--json", json.dumps(GENERIC_DOC)],
        [],
    ])
    def test_refused_argv(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 1
        assert out.count("\n") == 1
        assert set(json.loads(out)) == {"error", "detail"} and json.loads(out)["error"] == "parse_error"

    def test_dash_values_after_equals(self, capsys):
        code, out = run(capsys, "stability", "--json=-1")
        assert (code, json.loads(out)["detail"]) == (1, "top-level JSON document must be an object")
        code, out = run(capsys, "poincare", "--space", "Pn", "--n", "1", "--inner=-x y")
        assert (code, json.loads(out)["poly"]) == (0, ["1", "1"])


def fraction_calls(thunk) -> set[str]:
    """The names of the functions in the fractions module that thunk() calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "fractions":
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return called


class TestIntegerRequestsBuildNoFraction:
    """Integer documents are decided and written on Python ints alone: the
    hot paths keep no Fraction arithmetic."""

    @pytest.mark.parametrize("command, doc, key, value", [
        ("conic", GENERIC_DOC, "degree", 2),
        ("modify", DISK_FAMILY_DOC, "k", 1),
        ("stability", GENERIC_DOC, "verdict", "stable"),
        ("stratify", GENERIC_DOC, "stratum", "stable_locus"),
    ])
    def test_cli_requests(self, capsys, command, doc, key, value):
        codes = []
        assert fraction_calls(lambda: codes.append(main([command, "--json", json.dumps(doc)]))) == set()
        out = json.loads(capsys.readouterr().out)
        assert codes == [0] and out[key] == value
        if command == "modify":
            assert out["residual_base"]["gcd_degree"] == 0

    def test_cokernel_kind(self):
        kinds = []
        thunk = lambda: kinds.append(cokernel_kind(KroneckerModule.from_json(GENERIC_DOC)))
        assert fraction_calls(thunk) == set()
        assert kinds[0].kind == "twisted_ideal_of_quadric"

    def test_pencil_matrix_rank(self):
        M = KroneckerModule.from_json(GENERIC_DOC)
        ranks = []
        assert fraction_calls(lambda: ranks.append(pencil_matrix(M, 1, 2).rank())) == set()
        assert ranks == [2]

    def test_family_at_integer_lambda(self):
        family = LambdaFamily.from_json(DISK_FAMILY_DOC)
        out = []
        thunk = lambda: out.extend((family.specialize(2), family_conic(family, -3)))
        assert fraction_calls(thunk) == set()
        module, conic = out
        assert module.m12.nums == (0, 2, 2, 0) and module.m12.den == 1
        assert conic == plucker_conic(family.specialize(-3))


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


# an 'n' that is not an integer, with a matrix that would fit n = 3, 1 and 2
NON_INTEGER_N = [("\"3\"", 4), ("true", 2), ("2.5", 3)]


@pytest.mark.parametrize("n, width", NON_INTEGER_N)
@pytest.mark.parametrize("command", ["conic", "modify"])
def test_non_integer_n_is_parse_error(capsys, command, n, width):
    row = json.dumps(["1"] + ["0"] * (width - 1))
    entry = row if command == "conic" else f"[{row}]"
    doc = f'{{"n":{n},"matrix":[[{entry},{entry}],[{entry},{entry}]]}}'
    code, out = run(capsys, command, "--json", doc)
    assert code == 1
    assert out == '{"detail":"\'n\' must be an integer","error":"parse_error"}\n'


def wide_forms(rng, n):
    """A rational form with denominators up to 9, negative entries, no x_n term,
    and one numerator over 64 bits."""
    pool = [Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3, 4, 6, 9)]
    form = [rng.choice(pool) for _ in range(n)] + [Fraction(0)]
    form[rng.randrange(n)] = Fraction(rng.choice([-1, 1]) * (2**70 + rng.randrange(2**20)), rng.choice([3, 4]))
    return form


# At n = 11 the key "0,10" sorts before "0,2", so sorted keys are not pair order.
# No form has an x_11 term, so every pair (i, 11) has an all-zero triple.
WIDE_N = 11


def wide_case():
    rng = random.Random(WIDE_N)
    a1, b1, a2, b2, j1, j2 = (wide_forms(rng, WIDE_N) for _ in range(6))
    minors = ref_minors(a1, b1, a2, b2)
    values = [x for t in minors for x in t]
    assert min(values) < 0 < max(values) and (0, 0, 0) in minors
    assert max(abs(x.numerator) for x in values).bit_length() > 64
    assert len({x.denominator for x in values}) >= 3
    coords = {f"{i},{j}": [str(x) for x in t] for (i, j), t in zip(combinations(range(WIDE_N + 1), 2), minors)}
    basis = ref_rref([[t[k] for t in minors] for k in range(3)])
    # the minors span a plane, so they share no factor and the conic has degree 2
    assert len(basis) == 3
    assert len({x.denominator for row in basis for x in row}) >= 3
    return (a1, b1, a2, b2, j1, j2), coords, [[str(x) for x in row] for row in basis]


def test_wide_conic_byte_identical(capsys):
    (a1, b1, a2, b2, _, _), coords, basis = wide_case()
    doc = {"n": WIDE_N, "matrix": [[[str(x) for x in f] for f in row] for row in ((a1, b1), (a2, b2))]}
    expected = ref_stdout({"n": WIDE_N, "coords": coords, "envelope": {"dim": 3, "basis": basis}, "degree": 2})
    assert expected.index('"0,10"') < expected.index('"0,2"')
    assert run(capsys, "conic", "--json", json.dumps(doc)) == (0, expected)


def test_wide_modify_byte_identical(capsys):
    # rows lambda^2 (a1 s + b1 t) + lambda^3 j1 s and lambda (a2 s + b2 t) + lambda^2 j2 s:
    # the wedge divides by lambda^3, leaving the conic of (a1, b1, a2, b2)
    (a1, b1, a2, b2, j1, j2), coords, _ = wide_case()
    zero = ["0"] * (WIDE_N + 1)
    a1, b1, a2, b2, j1, j2 = ([str(x) for x in f] for f in (a1, b1, a2, b2, j1, j2))
    doc = {"n": WIDE_N, "matrix": [[[zero, zero, a1, j1], [zero, zero, b1]], [[zero, a2, j2], [zero, b2]]]}
    expected = ref_stdout({
        "k": 3,
        "conic": {"n": WIDE_N, "coords": coords},
        "residual_base": {"gcd": ["1"], "gcd_degree": 0, "rational_points": []},
    })
    assert run(capsys, "modify", "--json", json.dumps(doc)) == (0, expected)


# At n = 100 the key "0,100" sorts before "0,11", and the indices have one,
# two and three digits.
WIDEST_N = 100


def widest_forms(rng, n, last_zero):
    """A rational form with an entry nonzero in every column, but the last when last_zero."""
    pool = [Fraction(p, q) for p in (-5, -3, -2, -1, 1, 2, 4, 7) for q in (1, 2, 3, 5)]
    form = [rng.choice(pool) for _ in range(n + 1)]
    form[rng.randrange(n)] = Fraction(rng.choice([-1, 1]) * (2**70 + rng.randrange(2**20)), 7)
    if last_zero:
        form[n] = Fraction(0)
    return form


def wire(values):
    return [str(x) for x in values]


def widest_case(rng, last_zero):
    """(pencil rows, coords, envelope basis) of a module at n = WIDEST_N."""
    rows = [widest_forms(rng, WIDEST_N, last_zero) for _ in range(4)]
    minors = ref_minors(*rows)
    coords = {f"{i},{j}": wire(t) for (i, j), t in zip(combinations(range(WIDEST_N + 1), 2), minors)}
    basis = ref_rref([[t[k] for t in minors] for k in range(3)])
    assert len(basis) == 3
    return rows, coords, [wire(row) for row in basis]


def test_widest_conic_byte_identical(capsys):
    # no form has an x_100 term, so every pair (i, 100) has an all-zero triple
    (a1, b1, a2, b2), coords, basis = widest_case(random.Random(WIDEST_N), last_zero=True)
    assert coords["0,100"] == ["0", "0", "0"] and coords["0,99"] != ["0", "0", "0"]
    doc = {"n": WIDEST_N, "matrix": [[wire(a1), wire(b1)], [wire(a2), wire(b2)]]}
    expected = ref_stdout({"n": WIDEST_N, "coords": coords, "envelope": {"dim": 3, "basis": basis}, "degree": 2})
    assert expected.index('"0,100"') < expected.index('"0,11"') < expected.index('"0,2"')
    assert expected.index('"1,100"') < expected.index('"10,11"')
    assert run(capsys, "conic", "--json", json.dumps(doc)) == (0, expected)


def test_widest_modify_byte_identical(capsys):
    # rows lambda (a1 s + b1 t) + lambda^2 j1 t and a2 s + b2 t, each nonzero in every
    # column: the wedge divides by lambda, leaving the conic of (a1, b1, a2, b2)
    rng = random.Random(WIDEST_N + 1)
    (a1, b1, a2, b2), coords, _ = widest_case(rng, last_zero=False)
    j1 = widest_forms(rng, WIDEST_N, last_zero=False)
    assert all(a1) and all(b1) and all(a2) and all(b2)
    zero = ["0"] * (WIDEST_N + 1)
    doc = {"n": WIDEST_N, "matrix": [[[zero, wire(a1)], [zero, wire(b1), wire(j1)]], [[wire(a2)], [wire(b2)]]]}
    expected = ref_stdout({
        "k": 1,
        "conic": {"n": WIDEST_N, "coords": coords},
        "residual_base": {"gcd": ["1"], "gcd_degree": 0, "rational_points": []},
    })
    assert run(capsys, "modify", "--json", json.dumps(doc)) == (0, expected)


def test_widest_sparse_modify_byte_identical(capsys):
    # rows lambda (a1 s + b1 t) and a2 s + b2 t, the first nonzero only in the columns
    # 0 and 100: the only nonzero minors are at the pairs (0, j) and (i, 100), so the
    # filled triples sit on both sides of "0,100" < "0,11" and "1,100" < "10,11"
    rng = random.Random(WIDEST_N + 2)
    a2, b2 = (widest_forms(rng, WIDEST_N, last_zero=False) for _ in range(2))
    a1, b1 = ([Fraction(0)] * (WIDEST_N + 1) for _ in range(2))
    a1[0], b1[0], b1[WIDEST_N] = Fraction(3, 2), Fraction(-1), Fraction(5, 7)
    minors = ref_minors(a1, b1, a2, b2)
    coords = {f"{i},{j}": wire(t) for (i, j), t in zip(combinations(range(WIDEST_N + 1), 2), minors)}
    nonzero = {key for key, t in coords.items() if t != ["0", "0", "0"]}
    assert nonzero == {f"0,{j}" for j in range(1, WIDEST_N + 1)} | {f"{i},100" for i in range(1, WIDEST_N)}
    zero = ["0"] * (WIDEST_N + 1)
    doc = {"n": WIDEST_N, "matrix": [[[zero, wire(a1)], [zero, wire(b1)]], [[wire(a2)], [wire(b2)]]]}
    # the first row's columns 0 and 100 (3/2 s - t and 5/7 t) are not proportional,
    # nor are all of the second row's columns, so the minors have no common factor
    expected = ref_stdout({
        "k": 1,
        "conic": {"n": WIDEST_N, "coords": coords},
        "residual_base": {"gcd": ["1"], "gcd_degree": 0, "rational_points": []},
    })
    assert expected.index('"0,100"') < expected.index('"0,11"')
    assert expected.index('"1,100"') < expected.index('"10,11"')
    assert run(capsys, "modify", "--json", json.dumps(doc)) == (0, expected)


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


# Argv of arbitrary tokens, beside the well-formed flag layouts of requests().
FLAG_NAMES = ["--space", "--n", "--k", "--N", "--inner", "--in", "--json", "--coeffs", "--n-mode",
              "--reflect", "--out"]
TOKENS = st.sampled_from(FLAG_NAMES + ["-h", "--help", "--bogus", "--x=", "-x", "--", "-", "-1", "x", "",
                                       "poincare", "stability", "chamber", "T4", "3", "eq3", "{}",
                                       '{"T":"1"}', json.dumps(GENERIC_DOC)])


@st.composite
def token_lists(draw):
    """Any tokens, now and then behind a subcommand, flags with and without values."""
    tokens = draw(st.lists(TOKENS | st.text(max_size=4), max_size=6))
    flag = draw(st.sampled_from(FLAG_NAMES))
    with_value = draw(st.sampled_from([[flag], [f"{flag}=", f"{flag}=3"], [flag, "3"]]))
    return draw(st.sampled_from([tokens, tokens + with_value, ["stability", *with_value, *tokens]]))



@settings(max_examples=700, derandomize=True, deadline=None)
@given(requests() | token_lists())
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


# The reader against the argparse parser it replaced.  Values are drawn per
# flag, with `=` forms, repeated and missing values, negative and dash-leading
# values, prefix abbreviations, help flags and stray positionals.  Paths name
# files in a directory the test fills: "@" stands for that directory.
FLAG_VALUES = {
    "--space": ["Pn", "T4", "Gr", "Sym2", "MbarP", "MP2-4m+2", "P7", ""],
    "--n": ["1", "3", "0", "12", "007", "-1", "-0", "٣", "３", "3_0", " 3 ", "+3", "1.5", "x", ""],
    "--inner": ['{"space":"Pn","n":1}', '{"space":"T4","n":3}', "{bad", "[1]", ""],
    "--json": [json.dumps(GENERIC_DOC), json.dumps(DIAG_DOC), json.dumps(DISK_FAMILY_DOC), "{}", "[1]",
               "{bad", ""],
    "--in": ["@module.json", "@family.json", "@combo.json", "@list.json", "@missing.json", ""],
    "--coeffs": ['{"T":"1"}', '{"H11":"1","T":"2/3"}', '{"P":"1","Dunb":"1","Ddeg":"1"}', '{"T":"0"}',
                 "[1]", "{bad", ""],
    "--n-mode": ["eq3", "gt3", "eq", ""],
    "--out": ["", "@out.json", "@missing/out.json"],
}
FLAG_VALUES["--k"] = FLAG_VALUES["--N"] = FLAG_VALUES["--n"]
DASH_VALUES = ["-1", "-7", "-1.5", "-.5", "-x", "-", "- x", "--", "-h", "--json"]
ABBREVIATIONS = ["--sp", "--in", "--inn", "--js", "--co", "--n", "--n-", "--ref", "--ou", "--he"]


@st.composite
def reader_argvs(draw):
    op = draw(st.sampled_from([*COMMANDS] * 4 + ["frobnicate", "--json", "-1"]))
    own = COMMANDS.get(op, FLAG_NAMES)
    argv = [op]
    for i in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["own"] * 24 + ["other", "abbreviation", "stray", "help"]))
        if kind == "stray":
            argv.append(draw(st.sampled_from(["x", "3", "-1", "{}", "-"])))
            continue
        if kind == "help":
            argv.append(draw(st.sampled_from(["-h", "--help"])))
            continue
        names = {"own": own, "other": FLAG_NAMES, "abbreviation": ABBREVIATIONS}[kind]
        # the first flag is most often one the subcommand requires
        flag = draw(st.sampled_from(names[:2] if i == 0 and kind == "own" else names))
        value = draw(st.sampled_from(FLAG_VALUES.get(flag, ["x"]) * 12 + DASH_VALUES))
        form = draw(st.sampled_from(["separate"] * 6 + ["equals"] * 3 + ["missing"]))
        if flag == "--reflect" or form == "missing":
            argv.append(flag)
        elif form == "equals":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def outcome(argv, directory):
    """(exit code, stdout, {name: text} of the files it wrote) of main(argv), run
    in directory, whose new files are then removed."""
    before = set(directory.iterdir())
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {}
    for path in set(directory.iterdir()) - before:
        written[path.name] = path.read_text()
        path.unlink()
    return code, out.getvalue(), written


def off_grammar_integer(token):
    """int() reads token, but it is not ASCII -?[0-9]+."""
    try:
        int(token)
    except ValueError:
        return False
    return not re.fullmatch(r"-?[0-9]+", token)


def exemption(argv):
    """Why the reader may answer argv unlike the reference, or None.

    Help flags print the usage document.  The reader refuses prefix
    abbreviations, integer values that int() reads outside -?[0-9]+, and a
    value in its own token that starts with - but is no negative integer,
    where the reference took each of them.  The reference also drops the
    value of `--flag=--` (argparse 3.11 leaves an empty list), which the
    reader takes as the text `--`.
    """
    if "-h" in argv or "--help" in argv:
        return "help"
    own = COMMANDS.get(argv[0], [])
    for i, token in enumerate(argv[1:], 1):
        name, eq, value = token.partition("=")
        if name in own and value == "--":
            return "dropped --"
        if name in ("--n", "--k", "--N") and name in own:
            if off_grammar_integer(value if eq else argv[i + 1] if i + 1 < len(argv) else "x"):
                return "integer"
        if token.startswith("-") and name not in own and not re.fullmatch(r"-[0-9]+", token):
            # a prefix abbreviation, or a dash-leading value the reference took
            return "abbreviation or dash value"
    return None


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reader")
    (directory / "module.json").write_text(json.dumps(GENERIC_DOC))
    (directory / "family.json").write_text(json.dumps(DISK_FAMILY_DOC))
    (directory / "combo.json").write_text(json.dumps(EQ3_COMBO_DOC))
    (directory / "list.json").write_text("[1]")
    return directory


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(reader_argvs())
def test_reader_matches_reference_parser(reader_dir, argv):
    argv = [token.replace("@", f"{reader_dir}/") for token in argv]
    code, out, written = outcome(argv, reader_dir)
    assert out.count("\n") + len(written) == 1
    doc = json.loads(out or "".join(written.values()))
    why = exemption(argv)
    if why == "help":
        assert code == 0 and set(doc) == {"schema_version", "usage"}
        return
    if why == "dropped --":
        assert code in (0, 1, 2) and ("error" in doc) == (code != 0)
        return
    try:
        canonical = reference_argv(argv)
    except (ReferenceRefused, ReferenceHelp):
        canonical = None
    if why is not None or canonical is None:
        # refused by the reader: one parse_error document
        assert code == 1 and not written
        assert set(doc) == {"error", "detail"} and doc["error"] == "parse_error"
    else:
        # read as the reference read it: the same bytes as its exact --flag=value form
        assert (code, out, written) == outcome(canonical, reader_dir)
