"""Write tests/corpus.jsonl: CLI requests with the exit code and stdout that
the current code gives them.

    PYTHONPATH=src python tests/make_corpus.py

Each line is one request: {"argv": [...], "code": exit code, "stdout": text},
or, when the stdout is over 2 KB, "sha256": the hex digest of its UTF-8 bytes
in place of "stdout".  tests/test_corpus.py replays every line through
cli.main.  The inputs come from fixed seeds and plain integer arithmetic here,
not from the library; the script checks that each input lands in the stratum,
witness kind or chamber cell it was built for.  Regenerating the corpus is a
test-data change: say in CHANGES.md which lines changed and why.

Covered: stability, stratify and conic on modules of every stratum and
witness kind at n = 2, 3, 11, 20 and 60, plain, moved along their orbit and
written over a denominator; modify on sparse, full-support, leading-zero-lambda
and Y0 (l * I + lambda N) families at the same n; poincare on Pn, MbarP,
MbarGr and T4 on a stride up to n = 1000, every Gr(k, N) with N <= 12, Sym2
nests and MP2-4m+2; chamber at the sum of the generators of every set of one
to three of them, so at every cell, in both modes, with and without
--reflect; each parse-error and domain-error kind; and the usage documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys

from moriconic import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.jsonl")
# A stdout longer than this many bytes is kept as its SHA-256.
INLINE_BYTES = 2048

NS = (2, 3, 11, 20, 60)
GENERATORS = ("Dunb", "Ddeg", "Delta", "T", "H11", "H2", "P")


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def record(argv: list[str]) -> dict:
    code, out = run(argv)
    data = out.encode("utf-8")
    if len(data) > INLINE_BYTES:
        return {"argv": argv, "code": code, "sha256": hashlib.sha256(data).hexdigest()}
    return {"argv": argv, "code": code, "stdout": out}


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Modules: 2 x 2 matrices of integer linear forms, one list of n + 1 per entry
# ---------------------------------------------------------------------------


def random_form(rng: random.Random, width: int, density: float = 1.0) -> list[int]:
    while True:
        form = [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(width)]
        if any(form):
            return form


def independent(u: list[int], v: list[int]) -> bool:
    return any(u[i] * v[j] != u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def forms(rng: random.Random, width: int, count: int) -> list[list[int]]:
    """count forms, each independent of the one before."""
    out = [random_form(rng, width)]
    while len(out) < count:
        f = random_form(rng, width)
        if independent(out[-1], f):
            out.append(f)
    return out


def scaled(c: int, f: list[int]) -> list[int]:
    return [c * x for x in f]


def added(*fs: list[int]) -> list[int]:
    return [sum(xs) for xs in zip(*fs)]


def normal_form(kind: str, rng: random.Random, width: int) -> list[list[list[int]]]:
    """A module of the given kind, as [[m11, m12], [m21, m22]]."""
    zero = [0] * width
    l1, l2, l3 = forms(rng, width, 3)
    c = rng.choice((-2, -1, 2, 3))
    if kind == "zero_column":
        return [[l1, scaled(c, l1)], [l2, scaled(c, l2)]]
    if kind == "zero_row":
        return [[l1, l2], [scaled(c, l1), scaled(c, l2)]]
    if kind == "Y0":
        return [[l1, zero], [zero, l1]]
    if kind == "Z0":
        return [[l1, l2], [zero, l1]]
    if kind == "Y1":
        return [[l1, zero], [zero, l2]]
    if kind == "Y1 irrational":
        # l1 * I + l2 * N with N = [[0, 2], [1, 0]], whose eigenvalues are +-sqrt(2)
        return [[l1, scaled(2, l2)], [l2, l1]]
    if kind == "Z1":
        return [[l1, l3], [zero, l2]]
    return [[l1, l2], [l3, random_form(rng, width)]]


def invertible(rng: random.Random) -> list[list[int]]:
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c:
            return [[a, b], [c, d]]


def moved(M, rng: random.Random):
    """A M B for random invertible integer A, B: a point of the same orbit."""
    A, B = invertible(rng), invertible(rng)
    return [[added(*(scaled(A[i][k] * B[l][j], M[k][l]) for k in range(2) for l in range(2)))
             for j in range(2)] for i in range(2)]


def module_doc(n: int, M, den: int = 1) -> str:
    write = str if den == 1 else (lambda x: f"{x}/{den}")
    return compact({"n": n, "matrix": [[[write(x) for x in f] for f in row] for row in M]})


# the stratum and witness kind each construction must give
MODULE_KINDS = {
    "zero_column": ("unstable_locus", "zero_column"),
    "zero_row": ("unstable_locus", "zero_row"),
    "Y0": ("Y0", "rank_drop"),
    "Z0": ("Z0", "rank_drop"),
    "Y1": ("Y1", "rank_drop"),
    "Y1 irrational": ("Y1", "gcd_certificate"),
    "Z1": ("Z1", "rank_drop"),
    "stable": ("stable_locus", None),
}


def module_requests() -> list[list[str]]:
    requests = []
    rng = random.Random(35)
    for n in NS:
        for kind, (stratum, witness) in MODULE_KINDS.items():
            M = normal_form(kind, rng, n + 1)
            for doc in (module_doc(n, M), module_doc(n, moved(M, rng)),
                        module_doc(n, moved(M, rng), rng.choice((2, 6, 35)))):
                code, out = run(["stability", "--json", doc])
                found = json.loads(out)["witness"]
                assert code == 0 and (found and found["kind"]) == witness, (kind, n, out)
                assert json.loads(run(["stratify", "--json", doc])[1])["stratum"] == stratum
                requests += [[op, "--json", doc] for op in ("stability", "stratify", "conic")]
    return requests


# ---------------------------------------------------------------------------
# Families: each entry a list of forms, the coefficients of lambda^0, lambda^1, ...
# ---------------------------------------------------------------------------


def family(kind: str, rng: random.Random, width: int):
    zero = [0] * width
    if kind == "sparse":
        return [[[random_form(rng, width, 2 / width) for _ in range(rng.randint(1, 3))]
                 for _ in range(2)] for _ in range(2)]
    if kind == "full":
        return [[[[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(width)] for _ in range(rng.randint(1, 2))]
                 for _ in range(2)] for _ in range(2)]
    if kind == "leading zero":
        return [[[zero] * rng.randint(0, 2) + [random_form(rng, width, 0.5) for _ in range(rng.randint(1, 2))]
                 for _ in range(2)] for _ in range(2)]
    # Y0: l * I + lambda N
    l, = forms(rng, width, 1)
    n11, n12, n21, n22 = (random_form(rng, width, 0.5) for _ in range(4))
    return [[[l, n11], [zero, n12]], [[zero, n21], [l, n22]]]


def family_doc(n: int, F, den: int = 1) -> str:
    write = str if den == 1 else (lambda x: f"{x}/{den}")
    return compact({"n": n, "matrix": [[[[write(x) for x in f] for f in e] for e in row] for row in F]})


def modify_requests() -> list[list[str]]:
    requests = []
    rng = random.Random(3535)
    for n in NS:
        for kind in ("sparse", "full", "leading zero", "Y0"):
            for den in (1, 1, 6):
                requests.append(["modify", "--json", family_doc(n, family(kind, rng, n + 1), den)])
    return requests


# ---------------------------------------------------------------------------
# Poincare polynomials and chamber cells
# ---------------------------------------------------------------------------


def poincare_requests() -> list[list[str]]:
    requests = []
    stride = sorted({*range(-2, 12), *range(12, 1001, 37), 1000})
    for space in ("Pn", "MbarP", "MbarGr", "T4"):
        requests += [["poincare", "--space", space, "--n", str(n)] for n in stride]
    for N in range(-1, 13):
        requests += [["poincare", "--space", "Gr", "--k", str(k), "--N", str(N)] for k in range(-1, N + 2)]
    requests.append(["poincare", "--space", "MP2-4m+2"])
    inners = [{"space": "Pn", "n": 0}, {"space": "Pn", "n": 3}, {"space": "Gr", "k": 2, "N": 4},
              {"space": "MbarP", "n": 2}, {"space": "MbarGr", "n": 3}, {"space": "T4", "n": 3},
              {"space": "T4", "n": 5}, {"space": "MP2-4m+2"}]
    for inner in inners:
        for levels in range(4):
            requests.append(["poincare", "--space", "Sym2", "--inner", compact(inner)])
            inner = {"space": "Sym2", "inner": inner}
    # degree 2^8 * 17 is over the cap: refused before any product
    nest = {"space": "MP2-4m+2"}
    for _ in range(7):
        nest = {"space": "Sym2", "inner": nest}
    requests.append(["poincare", "--space", "Sym2", "--inner", compact(nest)])
    # --inner is ignored beside any space but Sym2
    requests.append(["poincare", "--space", "T4", "--n", "4", "--inner", '{"space":"Pn","n":2}'])
    return requests


def chamber_requests() -> list[list[str]]:
    requests = []
    landed = set()
    for size in (1, 2, 3):
        for gens in itertools.combinations(GENERATORS, size):
            coeffs = compact({g: "1" for g in gens})
            for mode in ("gt3", "eq3"):
                for reflect in ((), ("--reflect",)):
                    argv = ["chamber", "--coeffs", coeffs, "--n-mode", mode, *reflect]
                    cell = tuple(json.loads(run(argv)[1])["cell"]["generators"])
                    landed.add((mode, cell, cell == gens and not reflect))
                    requests.append(argv)
    # 7 vertices, 15 edges and 9 triangles per mode, each the cell of the sum
    # of its own generators
    cells = {(mode, cell) for mode, cell, own in landed if own}
    assert len(cells) == 2 * 31 and {(mode, cell) for mode, cell, _ in landed} == cells
    rng = random.Random(353535)
    for _ in range(20):
        coeffs = {g: f"{rng.randint(0, 9)}/{rng.randint(1, 6)}" for g in rng.sample(GENERATORS, rng.randint(1, 7))}
        requests.append(["chamber", "--coeffs", compact(coeffs), "--n-mode", rng.choice(("gt3", "eq3"))])
    requests.append(["chamber", "--coeffs", '{"T":"1"}'])
    return requests


# ---------------------------------------------------------------------------
# Refusals and usage
# ---------------------------------------------------------------------------

GOOD = '{"n":2,"matrix":[[["1","0","0"],["0","1","0"]],[["0","0","1"],["1","0","0"]]]}'
GOOD_FAMILY = '{"n":2,"matrix":[[[["1","0","0"]],[["0","1","0"]]],[[["0","0","1"]],[["1","0","0"]]]]}'


def error_requests() -> list[list[str]]:
    module_ops = ("stability", "stratify", "conic", "modify")
    requests = [
        # argv
        [], ["nope"], ["--json", GOOD], ["stability"], ["stability", "--json"], ["stability", "--bogus", "1"],
        ["stability", "stray"], ["stability", "--json", GOOD, "--in", "x.json"],
        ["chamber", "--reflect=1", "--coeffs", '{"T":"1"}'], ["chamber", "--coeffs", '{"T":"1"}', "--n-mode", "gt4"],
        ["poincare", "--space", "Pn", "--n", "x"], ["poincare", "--space", "Pn", "--n", "-x"],
        ["poincare", "--space", "Qn", "--n", "3"], ["poincare", "--n", "3"],
        ["poincare", "--space=Pn", "--n=-3"], ["poincare", "--space", "Pn", "--n", "３"],
        # files
        ["stability", "--in", "missing-module.json"], ["stability", "--in="],
        ["chamber", "--coeffs", '{"T":"1"}', "--out", "."],
        # JSON text; Python 3.13 reads 5,000 levels of nesting, and 20,000 is too deep for every version
        ["stability", "--json", "{"], ["stability", "--json", "[]"], ["stability", "--json", "[" * 20000],
        ["chamber", "--coeffs", "[1]"], ["chamber", "--coeffs", "{"],
        # chamber documents
        ["chamber", "--coeffs", '{"X":"1"}'], ["chamber", "--coeffs", '{"T":"-1"}'],
        ["chamber", "--coeffs", '{"T":"1/0"}'], ["chamber", "--coeffs", '{"T":1.5}'],
        ["chamber", "--coeffs", '{"T":"1","X":"-1","H2":"x"}'], ["chamber", "--coeffs", '{"T":"0"}'],
        ["chamber", "--coeffs", "{}"], ["chamber", "--coeffs", '{"T":"0","P":"0/3"}', "--n-mode", "eq3"],
        # poincare documents
        ["poincare", "--space", "Pn"], ["poincare", "--space", "Gr", "--k", "2"],
        ["poincare", "--space", "Pn", "--n", "-1"], ["poincare", "--space", "MbarP", "--n", "1"],
        ["poincare", "--space", "MbarGr", "--n", "2"], ["poincare", "--space", "T4", "--n", "2"],
        ["poincare", "--space", "T4", "--n", "1001"], ["poincare", "--space", "Gr", "--k", "3", "--N", "2"],
        ["poincare", "--space", "Sym2"], ["poincare", "--space", "Sym2", "--inner", "3"],
        ["poincare", "--space", "Sym2", "--inner", '{"space":"Sym2"}'],
        ["poincare", "--space", "Sym2", "--inner", '{"space":"Qn","n":3}'],
        ["poincare", "--space", "Sym2", "--inner", '{"space":"Pn","n":"3"}'],
        ["poincare", "--space", "Sym2", "--inner", "{"],
    ]
    # module and family documents, on every subcommand that reads one
    bad_docs = [
        '{"n":"3","matrix":[[["1","0","0","0"],["0","0","1","0"]],[["0","0","0","1"],["0","1","0","0"]]]}',
        '{"n":true,"matrix":[[["1","0"],["0","0"]],[["0","0"],["0","1"]]]}',
        '{"n":2.5,"matrix":[[["1","0","0"],["0","1","0"]],[["0","0","0"],["0","0","1"]]]}',
        '{"n":1,"matrix":[[["1","0"],["0","1"]],[["0","0"],["1","0"]]]}',
        '{"matrix":[]}', '{"n":2}', '{"n":2,"matrix":"abcd"}', '{"n":2,"matrix":[[1,2],[3,4]]}',
        '{"n":2,"matrix":[[["1","0","0"]],[["0","1","0"]]]}',
        '{"n":2,"matrix":[[["1","0","0"],["0","1"]],[["0","0","0"],["0","0","1"]]]}',
        '{"n":2,"matrix":[[[1.5,0,0],[0,1,0]],[[0,0,0],[0,0,1]]]}',
        '{"n":2,"matrix":[[["1/0","0","0"],["0","1","0"]],[["0","0","0"],["0","0","1"]]]}',
        '{"n":2,"matrix":[[["١","0","0"],["0","1","0"]],[["0","0","0"],["0","0","1"]]]}',
        '{"n":2,"matrix":[[["0","0","0"],["0","0","0"]],[["0","0","0"],["0","0","0"]]]}',
        '{"n":2,"matrix":[[[["1","0","0"]],[["0","0","0"]]],[[["0","0","0"]],[["0","0","0"]]]]}',
        '{"n":2,"matrix":[[[],[["0","1","0"]]],[[["0","0","1"]],[["1","0","0"]]]]}',
        '{"n":2,"matrix":[[["1","0","0"],"x"],[["0","0","1"],["1","0","0"]]]}',
        '{"n":2,"matrix":[[[["1","0"]],[["0","1","0"]]],[[["0","0","1"]],[["1","0","0"]]]]}',
        GOOD, GOOD_FAMILY,
    ]
    requests += [[op, "--json", doc] for doc in bad_docs for op in module_ops]
    # the conic of a scalar module is zero
    requests.append(["conic", "--json", '{"n":2,"matrix":[[["1","0","0"],["0","0","0"]],[["0","0","0"],["1","0","0"]]]}'])
    # usage documents
    requests += [["--help"], ["-h"], ["nope", "-h"]]
    requests += [[op, "-h"] for op in ("poincare", "stability", "stratify", "conic", "modify", "chamber")]
    requests.append(["stability", "--json", GOOD, "--help"])
    return requests


def main() -> None:
    requests = (module_requests() + modify_requests() + poincare_requests() + chamber_requests()
                + error_requests())
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as fh:
        for argv in requests:
            fh.write(json.dumps(record(argv), sort_keys=True) + "\n")
    print(f"{len(requests)} requests written to {os.path.relpath(CORPUS)}", file=sys.stderr)


if __name__ == "__main__":
    main()
