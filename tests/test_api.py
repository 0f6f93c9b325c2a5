import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import moriconic
from moriconic import cli

SRC = os.path.dirname(os.path.dirname(moriconic.__file__))

MODULE_DOC = json.dumps({
    "n": 3,
    "matrix": [
        [["1", "0", "0", "0"], ["0", "0", "1", "0"]],
        [["0", "0", "0", "1"], ["0", "1", "0", "0"]],
    ],
})
FAMILY_DOC = json.dumps({
    "n": 3,
    "matrix": [
        [[["1", "0", "0", "0"]], [["0", "0", "0", "0"], ["0", "1", "1", "0"]]],
        [[["0", "0", "0", "0"], ["0", "2", "-1", "0"]], [["1", "0", "0", "0"]]],
    ],
})

# Runs the CLI as `python -m moriconic.cli` does.  REPORT then prints, as the
# last line, the loaded moriconic submodules and which of HEAVY are loaded.
CLI_SCRIPT = """
import runpy, sys
sys.argv = ["moriconic", *{argv!r}]
try:
    runpy.run_module("moriconic.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""
# Standard-library modules none of these requests needs: argparse took about
# 3 ms of a cold request, dataclasses, with inspect and what inspect imports,
# 7-10 ms, and fractions, with the decimal it imports, about 2-3 ms.  No
# request builds a Fraction: even a modify base point is written from
# integers.
HEAVY = ("argparse", "dataclasses", "inspect", "fractions", "decimal")
REPORT = """
import json, sys
print(json.dumps([sorted(m[len("moriconic."):] for m in sys.modules if m.startswith("moriconic.")),
                  [m for m in {heavy!r} if m in sys.modules]]))
""".format(heavy=HEAVY)


def fresh_report(script: str) -> tuple[set[str], set[str]]:
    """The moriconic submodules a fresh interpreter has loaded after running
    script, and which of HEAVY it has loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
    )
    submodules, heavy = json.loads(proc.stdout.splitlines()[-1])
    return set(submodules), set(heavy)


def loaded_submodules(script: str) -> set[str]:
    return fresh_report(script)[0]


def test_all_is_sorted_and_unique():
    assert moriconic.__all__ == sorted(set(moriconic.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in moriconic.__all__ if not hasattr(moriconic, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from moriconic import *", namespace)
    assert set(moriconic.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(moriconic.__all__) <= set(dir(moriconic))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        moriconic.no_such_name


def test_bare_import_loads_no_submodule():
    assert loaded_submodules("import moriconic") == set()


def test_submodule_resolves_after_bare_import():
    script = "import moriconic\nassert moriconic.chamber.resolve is moriconic.resolve\n"
    assert loaded_submodules(script) == {"chamber", "errors", "wire"}


# The stability, stratify, conic and modify requests load the integer routines
# alone, not the records and linear algebra that kronecker and conic build
# around them; only the conic, modify and Poincare paths multiply packed
# integers.
CORE = {"errors", "strata", "wire"}
KERNEL = CORE | {"kronecker"}
PLUCKER = CORE | {"packing", "plucker"}


@pytest.mark.parametrize("argv, expected", [
    (["stability", "--json", MODULE_DOC], CORE),
    (["stratify", "--json", MODULE_DOC], CORE),
    (["conic", "--json", MODULE_DOC], PLUCKER),
    (["modify", "--json", FAMILY_DOC], PLUCKER),
    (["chamber", "--coeffs", '{"T":"1"}'], {"errors", "chamber", "wire"}),
    (["poincare", "--space", "Sym2", "--inner", '{"space":"T4","n":3}'],
     {"errors", "motivic", "packing", "qpoly", "wire"}),
])
def test_each_subcommand_loads_only_its_modules(argv, expected):
    assert fresh_report(CLI_SCRIPT.format(argv=argv)) == (expected, set())


def test_modify_with_rational_base_points_builds_no_fraction(capsys):
    # the rows 2 x0, x0 and x1, 3 x1 give the one minor (2s + t)(s + 3t)
    doc = {"n": 2, "matrix": [[[["2", "0", "0"]], [["1", "0", "0"]]], [[["0", "1", "0"]], [["0", "3", "0"]]]]}
    result = moriconic.modify_family(moriconic.LambdaFamily.from_json(doc))
    assert result.base_points == ((Fraction(-1, 2), 1), (Fraction(-3), 1))
    assert cli.main(["modify", "--json", json.dumps(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["residual_base"]["rational_points"] == [["-1/2", "1"], ["-3", "1"]]
    assert fresh_report(CLI_SCRIPT.format(argv=["modify", "--json", json.dumps(doc)])) == (PLUCKER, set())


def test_record_types_load_no_heavy_module():
    script = "from moriconic import T4, Witness, DivisorCombo\n"
    expected = {"chamber", "errors", "kronecker", "motivic", "packing", "qpoly", "strata", "wire"}
    assert fresh_report(script) == (expected, set())


def module_doc(n: int, *entries: str) -> str:
    """The module document of four entries given as comma-separated coefficients."""
    m11, m12, m21, m22 = (e.split(",") for e in entries)
    return json.dumps({"n": n, "matrix": [[m11, m12], [m21, m22]]})


# One module per stratum, Y1 with rational and with irrational roots, and
# roots (s : t) with t = 0, t = 1 and t > 1.
STRATUM_DOCS = {
    "unstable_locus": module_doc(2, "1,0,0", "0,1,0", "0,0,0", "0,0,0"),
    "Y0": module_doc(2, "1,0,0", "0,0,0", "0,0,0", "1,0,0"),
    "Y1 rational": module_doc(2, "1,0,0", "0,0,0", "0,0,0", "0,1,0"),
    "Y1 irrational": module_doc(2, "1,0,0", "0,2,0", "0,1,0", "1,0,0"),
    "Z0": module_doc(2, "0,1,0", "0,0,0", "-1,0,0", "0,-1,0"),
    "Z1": module_doc(2, "1/3,0,0", "0,1/3,0", "0,0,2/3", "0,0,1/3"),
    "stable_locus": MODULE_DOC,
}


def test_stability_and_stratify_load_no_fractions():
    # the witness is written from integers, so neither request builds a Fraction
    witnesses = {}
    for label, doc in STRATUM_DOCS.items():
        module = moriconic.KroneckerModule.from_json(json.loads(doc))
        assert moriconic.stratify(module).value == label.split()[0]
        witnesses[label] = moriconic.classify_stability(module).witness
    assert witnesses["Y1 irrational"].kind is moriconic.WitnessKind.GCD_CERTIFICATE
    assert [witnesses[label].vector for label in ("Y0", "Z0", "Z1")] == [(1, 0), (0, 1), (Fraction(-1, 2), 1)]
    script = "".join(CLI_SCRIPT.format(argv=[op, "--json", doc])
                     for doc in STRATUM_DOCS.values() for op in ("stability", "stratify"))
    assert fresh_report(script) == (CORE, set())


def test_records_hold_enum_members_in_a_fresh_interpreter():
    # strata decides in wire strings; the records map them to Enum members
    script = """
import json
from moriconic import (StabilizerKind, Stratum, Verdict, WitnessKind, KroneckerModule,
                       classify_stability, stratify)
for label, doc in {docs!r}:
    M = KroneckerModule.from_json(json.loads(doc))
    cls = classify_stability(M)
    assert stratify(M) is Stratum(label.split()[0]) and type(cls.verdict) is Verdict
    assert cls.stabilizer_kind is None or type(cls.stabilizer_kind) is StabilizerKind
    assert cls.witness is None or type(cls.witness.kind) is WitnessKind
""".format(docs=list(STRATUM_DOCS.items()))
    assert loaded_submodules(script) == KERNEL


def module_level_imports(tree: ast.AST):
    """The import statements of a module that run when it loads: those outside
    every function body."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from module_level_imports(node)


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(os.path.dirname(moriconic.__file__)) if f.endswith(".py")))
def test_no_module_imports_fractions_when_it_loads(name):
    with open(os.path.join(os.path.dirname(moriconic.__file__), name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), name)
    found = [
        node.lineno for node in module_level_imports(tree)
        if any(alias.name.split(".")[0] == "fractions" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions"
    ]
    assert found == [], f"{name} imports fractions at module level on line(s) {found}"
