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

from .errors import DomainError

SCHEMA_VERSION = 1

# The largest degree of a Poincare polynomial the CLI computes, checked on
# the identifier before any product is formed.  The costliest requests within
# it nest Sym2 eight or more levels deep, each level doubling the bit length
# of the coefficients: Sym2^8 of MbarGr(4) takes 0.6-0.9 s on a 2-vCPU Xeon
# with Python 3.11, nearly all of it in its big-integer squarings.
MAX_POINCARE_DEGREE = 4000

# Per space tag: the name of its identifier class in motivic and its integer
# fields.  Sym2 is handled apart: it wraps another identifier and doubles its
# degree.
_SPACES = {
    "Pn": ("ProjSpace", ("n",)),
    "Gr": ("Grassmannian", ("k", "N")),
    "MbarP": ("KontsevichProj", ("n",)),
    "MbarGr": ("MbarGr", ("n",)),
    "T4": ("T4", ("n",)),
    "MP2-4m+2": ("MP24m2", ()),
}


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
    p.add_argument("--space", required=True, choices=[*_SPACES, "Sym2"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--N", dest="big_n", type=int)
    p.add_argument("--inner", help="JSON space identifier for Sym2")
    p.add_argument("--out")

    for name, help_text, what in (
        ("stability", "GIT stability verdict of a Kronecker module", "module"),
        ("stratify", "orbit-type stratum of a Kronecker module", "module"),
        ("conic", "Pluecker conic, envelope, and degree of a Kronecker module", "module"),
        ("modify", "elementary modification of a lambda family", "family"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--in", dest="infile", help=f"path to a {what} JSON document")
        src.add_argument("--json", dest="inline", help=f"inline {what} JSON document")
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


def _space_from_json(doc):
    """The space an identifier names, if its Poincare degree is within the cap.

    Sym2 levels are unwound without recursion.  A degree below 1 still
    doubles per level in the bound, so the level count is bounded too.
    """
    from . import motivic

    levels = 0
    while isinstance(doc, dict) and doc.get("space") == "Sym2":
        levels += 1
        doc = doc.get("inner")
    if not isinstance(doc, dict) or "space" not in doc:
        raise ValueError("space identifier must be an object with a 'space' key")
    tag = doc["space"]
    if tag not in _SPACES:
        raise ValueError(f"unknown space identifier {tag!r}")
    cls_name, fields = _SPACES[tag]
    values = [doc.get(field) for field in fields]
    for field, value in zip(fields, values):
        if type(value) is not int:
            raise ValueError(f"space {tag} requires an integer {field!r}")
    space = getattr(motivic, cls_name)(*values)
    if max(space.dimension, 1) << levels > MAX_POINCARE_DEGREE:
        raise ValueError(f"the Poincare polynomial would exceed degree {MAX_POINCARE_DEGREE}")
    for _ in range(levels):
        space = motivic.Sym2Of(space)
    return space


def _run_poincare(args) -> dict:
    from .motivic import poincare

    # --inner is read for Sym2 only and ignored beside any other space
    inner = _parse_json(args.inner) if args.space == "Sym2" and args.inner else None
    doc = {"space": args.space, "n": args.n, "k": args.k, "N": args.big_n, "inner": inner}
    poly = poincare(_space_from_json(doc))
    return {"poly": poly.to_json()}


def _run_stability(args) -> dict:
    from .kronecker import KroneckerModule, classify_stability

    module = KroneckerModule.from_json(_load_doc(args))
    cls = classify_stability(module)
    return {
        "verdict": cls.verdict.value,
        "witness": cls.witness.to_json() if cls.witness else None,
        "closed_orbit": cls.closed_orbit,
        "stabilizer": cls.stabilizer_kind.value if cls.stabilizer_kind else None,
    }


def _run_stratify(args) -> dict:
    from .kronecker import KroneckerModule, stratify

    module = KroneckerModule.from_json(_load_doc(args))
    return {"stratum": stratify(module).value}


def _run_conic(args) -> dict:
    from .conic import conic_degree, envelope, plucker_conic
    from .kronecker import KroneckerModule

    module = KroneckerModule.from_json(_load_doc(args))
    c = plucker_conic(module)
    env = envelope(c)
    return {
        **c.to_json(),
        "envelope": env.to_json(),
        "degree": conic_degree(c),
    }


def _run_modify(args) -> dict:
    from .conic import LambdaFamily, modify_family

    family = LambdaFamily.from_json(_load_doc(args))
    result = modify_family(family)
    return {
        "k": result.k,
        "conic": result.conic.to_json(),
        "residual_base": {
            "gcd": result.base_gcd.to_json(),
            "gcd_degree": result.base_gcd.degree,
            "rational_points": [[str(s), str(t)] for s, t in result.base_points],
        },
    }


def _run_chamber(args) -> dict:
    from .chamber import DivisorCombo, duality_reflect, resolve

    doc = _load_doc(args) if args.infile else {"coeffs": _parse_json(args.coeffs)}
    if args.n_mode:
        doc["n_mode"] = args.n_mode
    combo = DivisorCombo.from_json(doc)
    if args.reflect:
        combo = duality_reflect(combo)
    return resolve(combo).to_json()


_RUNNERS = {
    "poincare": _run_poincare,
    "stability": _run_stability,
    "stratify": _run_stratify,
    "conic": _run_conic,
    "modify": _run_modify,
    "chamber": _run_chamber,
}


def _parse_error(exc: Exception) -> int:
    _emit({"error": "parse_error", "detail": str(exc)}, None)
    return 1


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        out_path = args.out
        doc, code = {"schema_version": SCHEMA_VERSION, **_RUNNERS[args.subcommand](args)}, 0
    except DomainError as exc:
        doc, code = {"error": exc.code, "detail": str(exc)}, 2
    except (CliParseError, KeyError, TypeError, ValueError, OSError) as exc:
        return _parse_error(exc)
    try:
        _emit(doc, out_path)
    except OSError as exc:
        # an unwritable --out path: the error goes to stdout instead
        return _parse_error(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
