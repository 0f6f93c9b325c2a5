"""Batch command-line front end with stable JSON input and output.

Subcommands: poincare, stability, stratify, conic, modify, chamber.  Each
request reads UTF-8 JSON (inline or from a file), writes a single JSON
document, and exits 0 on success, 2 on domain errors, 1 on parse errors.
Output is byte-deterministic: sorted keys, compact separators, rationals as
canonical strings, and a schema_version field pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chamber import DivisorCombo, NMode, duality_reflect, resolve
from .conic import LambdaFamily, conic_degree, envelope, modify_family, plucker_conic
from .errors import DomainError
from .kronecker import KroneckerModule, classify_stability, stratify
from .linalg import format_rat
from .motivic import (
    Grassmannian,
    KontsevichProj,
    MbarGr,
    MP24m2,
    ProjSpace,
    Sym2Of,
    T4,
    poincare,
)

SCHEMA_VERSION = 1

# How deep a space identifier may nest Sym2.  Each level doubles the degree
# of the polynomial: --space Sym2 over 10 nested levels on P^1 takes about
# half a second, two levels more take about a minute.
MAX_SYM2_NESTING = 10


class CliParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; parse failures here must be 1
    def error(self, message):
        raise CliParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="moriconic", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("poincare", help="virtual Poincare polynomial of a space")
    p.add_argument("--space", required=True,
                   choices=["Pn", "Gr", "MbarP", "MbarGr", "Sym2", "T4", "MP2-4m+2"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--N", dest="big_n", type=int)
    p.add_argument("--inner", help="JSON space identifier for Sym2")
    p.add_argument("--out")

    for name, help_text in (
        ("stability", "GIT stability verdict of a Kronecker module"),
        ("stratify", "orbit-type stratum of a Kronecker module"),
        ("conic", "Pluecker conic, envelope, and degree of a Kronecker module"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--in", dest="infile", help="path to a module JSON document")
        src.add_argument("--json", dest="inline", help="inline module JSON document")
        p.add_argument("--out")

    p = sub.add_parser("modify", help="elementary modification of a lambda family")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", help="path to a family JSON document")
    src.add_argument("--json", dest="inline", help="inline family JSON document")
    p.add_argument("--out")

    p = sub.add_parser("chamber", help="birational model of a divisor combination")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", help="inline JSON object of generator coefficients")
    src.add_argument("--in", dest="infile", help="path to a divisor-combination document")
    p.add_argument("--n-mode", choices=["gt3", "eq3"], default=None)
    p.add_argument("--reflect", action="store_true",
                   help="apply the duality reflection before resolving")
    p.add_argument("--out")
    return parser


_PARSER = _build_parser()


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nests too deeply") from None


def _load_doc(args) -> dict:
    if getattr(args, "infile", None):
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.inline
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON document must be an object")
    return doc


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _space_from_args(args):
    def need_n():
        if args.n is None:
            raise ValueError(f"--space {args.space} requires --n")
        return args.n

    if args.space == "Pn":
        return ProjSpace(need_n())
    if args.space == "Gr":
        if args.k is None or args.big_n is None:
            raise ValueError("--space Gr requires --k and --N")
        return Grassmannian(args.k, args.big_n)
    if args.space == "MbarP":
        return KontsevichProj(need_n())
    if args.space == "MbarGr":
        return MbarGr(need_n())
    if args.space == "T4":
        return T4(need_n())
    if args.space == "MP2-4m+2":
        return MP24m2()
    if args.space == "Sym2":
        if not args.inner:
            raise ValueError("--space Sym2 requires --inner")
        return Sym2Of(_space_from_json(_parse_json(args.inner)))
    raise ValueError(f"unknown space {args.space!r}")


def _space_from_json(doc):
    """The space an identifier names; Sym2 levels are unwound without recursion."""
    levels = 0
    while isinstance(doc, dict) and doc.get("space") == "Sym2":
        levels += 1
        if levels > MAX_SYM2_NESTING:
            raise ValueError(f"Sym2 identifiers nest at most {MAX_SYM2_NESTING} deep")
        doc = doc["inner"]
    if not isinstance(doc, dict) or "space" not in doc:
        raise ValueError("space identifier must be an object with a 'space' key")
    tag = doc["space"]
    if tag == "Pn":
        space = ProjSpace(doc["n"])
    elif tag == "Gr":
        space = Grassmannian(doc["k"], doc["N"])
    elif tag == "MbarP":
        space = KontsevichProj(doc["n"])
    elif tag == "MbarGr":
        space = MbarGr(doc["n"])
    elif tag == "T4":
        space = T4(doc["n"])
    elif tag == "MP2-4m+2":
        space = MP24m2()
    else:
        raise ValueError(f"unknown space identifier {tag!r}")
    for _ in range(levels):
        space = Sym2Of(space)
    return space


def _run_poincare(args) -> dict:
    poly = poincare(_space_from_args(args))
    return {"schema_version": SCHEMA_VERSION, "poly": poly.to_json()}


def _run_stability(args) -> dict:
    module = KroneckerModule.from_json(_load_doc(args))
    cls = classify_stability(module)
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": cls.verdict.value,
        "witness": cls.witness.to_json() if cls.witness else None,
        "closed_orbit": cls.closed_orbit,
        "stabilizer": cls.stabilizer_kind.value if cls.stabilizer_kind else None,
    }


def _run_stratify(args) -> dict:
    module = KroneckerModule.from_json(_load_doc(args))
    return {"schema_version": SCHEMA_VERSION, "stratum": stratify(module).value}


def _run_conic(args) -> dict:
    module = KroneckerModule.from_json(_load_doc(args))
    c = plucker_conic(module)
    env = envelope(c)
    return {
        "schema_version": SCHEMA_VERSION,
        **c.to_json(),
        "envelope": {
            "dim": env.dim,
            "basis": [[format_rat(x) for x in row] for row in env.basis],
        },
        "degree": conic_degree(c),
    }


def _run_modify(args) -> dict:
    family = LambdaFamily.from_json(_load_doc(args))
    result = modify_family(family)
    return {
        "schema_version": SCHEMA_VERSION,
        "k": result.k,
        "conic": result.conic.to_json(),
        "residual_base": {
            "gcd": result.base_gcd.to_json(),
            "gcd_degree": result.base_gcd.degree,
            "rational_points": [[format_rat(s), format_rat(t)] for s, t in result.base_points],
        },
    }


def _run_chamber(args) -> dict:
    if args.infile:
        doc = _load_doc(args)
        combo = DivisorCombo.from_json(doc)
        if args.n_mode is not None:
            combo = DivisorCombo.make(dict(doc["coeffs"]), NMode(args.n_mode))
    else:
        coeffs = _parse_json(args.coeffs)
        if not isinstance(coeffs, dict):
            raise ValueError("--coeffs must be a JSON object")
        combo = DivisorCombo.make(coeffs, NMode(args.n_mode or "gt3"))
    if args.reflect:
        combo = duality_reflect(combo)
    verdict = resolve(combo)
    return {"schema_version": SCHEMA_VERSION, **verdict.to_json()}


_RUNNERS = {
    "poincare": _run_poincare,
    "stability": _run_stability,
    "stratify": _run_stratify,
    "conic": _run_conic,
    "modify": _run_modify,
    "chamber": _run_chamber,
}


def main(argv=None) -> int:
    out_path = None
    try:
        args = _PARSER.parse_args(argv)
        out_path = getattr(args, "out", None)
        doc = _RUNNERS[args.subcommand](args)
    except CliParseError as exc:
        _emit({"error": "parse_error", "detail": str(exc)}, None)
        return 1
    except DomainError as exc:
        _emit({"error": exc.code, "detail": str(exc)}, out_path)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        _emit({"error": "parse_error", "detail": str(exc)}, None)
        return 1
    _emit(doc, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
