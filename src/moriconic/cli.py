"""Command-line front end with stable JSON input and output.

Subcommands: poincare, stability, stratify, conic, modify, chamber.  Each
request reads UTF-8 JSON (inline or from a file), writes a single JSON
document, and exits 0 on success, 2 on domain errors, 1 on parse errors.
Output is byte-deterministic: sorted keys, compact separators, rationals as
canonical strings, and a schema_version field pinned to 1.

argv is read once against one flag table (_FLAGS) into a request document,
and each subcommand's runner takes that document and nothing else and
returns the whole success document as one JsonText, written as it is; only
error and usage documents go through the JSON encoder.  -h or --help
anywhere prints a usage document built from the same table.
"""

from __future__ import annotations

import json
import re
import sys

from .errors import DomainError
from .wire import SCHEMA_VERSION, JsonText, json_strings

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


# The grammar of an integer flag value: the same as a QPoly.from_json coefficient.
_INTEGER = re.compile(r"-?[0-9]+")

# Per subcommand: each flag's exact name mapped to (destination, kind), and the
# flags of which exactly one must be given.  A kind is str, int, bool for a
# switch, or the tuple of accepted choices.
_MODULE_FLAGS = ({"--in": ("in", str), "--json": ("json", str), "--out": ("out", str)},
                 ("--in", "--json"))
_FLAGS = {
    "poincare": ({
        "--space": ("space", (*_SPACES, "Sym2")),
        "--n": ("n", int),
        "--k": ("k", int),
        "--N": ("N", int),
        "--inner": ("inner", str),
        "--out": ("out", str),
    }, ("--space",)),
    "stability": _MODULE_FLAGS,
    "stratify": _MODULE_FLAGS,
    "conic": _MODULE_FLAGS,
    "modify": _MODULE_FLAGS,
    "chamber": ({
        "--coeffs": ("coeffs", str),
        "--in": ("in", str),
        "--n-mode": ("n_mode", ("gt3", "eq3")),
        "--reflect": ("reflect", bool),
        "--out": ("out", str),
    }, ("--coeffs", "--in")),
}


def _shape(flag: str, dest: str, kind) -> str:
    if kind is bool:
        return flag
    value = "INT" if kind is int else dest.upper() if kind is str else "{" + ",".join(kind) + "}"
    return f"{flag} {value}"


def _usage(op: str) -> str:
    """The usage line of subcommand op, or of every subcommand when op names none."""
    lines = []
    for name, (flags, one_of) in _FLAGS.items():
        if op not in _FLAGS or name == op:
            group = " | ".join(_shape(flag, *flags[flag]) for flag in one_of)
            rest = [f"[{_shape(flag, *spec)}]" for flag, spec in flags.items() if flag not in one_of]
            lines.append(" ".join(["moriconic", name, f"({group})" if len(one_of) > 1 else group, *rest]))
    return "\n".join(lines)


def _read_argv(argv) -> tuple[str, dict, str | None]:
    """(subcommand, request document, --out path) for argv, read against _FLAGS.

    Flags are exact names, given as `--flag value` or `--flag=value`; the
    last occurrence of a flag wins.  A value in its own token may start with
    `-` only as a negative integer.
    """
    if not argv or argv[0] not in _FLAGS:
        raise ValueError(f"expected a subcommand, one of {', '.join(_FLAGS)}")
    op = argv[0]
    flags, one_of = _FLAGS[op]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ValueError(f"unknown flag {token!r}" if token.startswith("-")
                             else f"unexpected argument {token!r}")
        dest, kind = flags[flag]
        if kind is bool:
            if eq:
                raise ValueError(f"{flag} takes no value")
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _INTEGER.fullmatch(value):
                raise ValueError(f"{flag} expects a value")
        if kind is int:
            if not _INTEGER.fullmatch(value):
                raise ValueError(f"{flag} expects an integer, got {value!r}")
            value = int(value)
        elif kind is not str and value not in kind:
            raise ValueError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        values[dest] = value
    given = [flag for flag in one_of if flags[flag][0] in values]
    if not given:
        raise ValueError(f"{' or '.join(one_of)} is required")
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} exclude each other")
    out_path = values.pop("out", None)
    return op, _DOCUMENTS.get(op, _input_doc)(values), out_path


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nests too deeply") from None


def _input_doc(values: dict) -> dict:
    """The JSON object in the file --in names, or else in the --json text."""
    if "in" in values:
        with open(values["in"], encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = values["json"]
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON document must be an object")
    return doc


def _poincare_doc(values: dict) -> dict:
    """The space identifier: --space, --n, --k, --N, and --inner read as JSON."""
    # --inner is read for Sym2 only and ignored beside any other space
    inner = values.get("inner")
    values["inner"] = _parse_json(inner) if values["space"] == "Sym2" and inner else None
    return values


def _chamber_doc(values: dict) -> dict:
    """{"coeffs", "n_mode", "reflect"}: --in's document or the --coeffs object,
    with --n-mode over the document's own n_mode."""
    doc = _input_doc(values) if "in" in values else {"coeffs": _parse_json(values["coeffs"])}
    if "n_mode" in values:
        doc["n_mode"] = values["n_mode"]
    doc["reflect"] = values.get("reflect", False)
    return doc


_DOCUMENTS = {"poincare": _poincare_doc, "chamber": _chamber_doc}


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _emit(doc: dict | JsonText, out_path: str | None) -> None:
    """Write a runner's JsonText as it is, or an error or usage dict as compact
    JSON with sorted keys through the shared encoder, and a newline."""
    text = (doc if isinstance(doc, JsonText) else _encode(doc)) + "\n"
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


def _run_poincare(doc: dict) -> JsonText:
    from .motivic import poincare

    poly = poincare(_space_from_json(doc)).json_text()
    return JsonText(f'{{"poly":{poly},"schema_version":{SCHEMA_VERSION}}}')


def _run_stability(doc: dict) -> JsonText:
    from .strata import read_module, stability_text

    return stability_text(read_module(doc)[1])


def _run_stratify(doc: dict) -> JsonText:
    from .strata import read_module, stratify_text

    return stratify_text(read_module(doc)[1])


def _run_conic(doc: dict) -> JsonText:
    from .plucker import conic_text

    return conic_text(doc)


def _run_modify(doc: dict) -> JsonText:
    from .conic import LambdaFamily, modified_conic
    from .strata import root_points, vector_strings

    k, conic, gcd = modified_conic(LambdaFamily.from_json(doc))
    points = root_points(gcd)[1] if len(gcd) > 1 else ()
    vectors = ",".join(json_strings(vector_strings("rank_drop", s, t)) for s, t in points)
    base = (f'{{"gcd":{json_strings([str(c) for c in gcd])},"gcd_degree":{len(gcd) - 1},'
            f'"rational_points":[{vectors}]}}')
    return JsonText(f'{{"conic":{conic.json_text()},"k":{k},"residual_base":{base},'
                    f'"schema_version":{SCHEMA_VERSION}}}')


def _run_chamber(doc: dict) -> JsonText:
    from .chamber import DivisorCombo, duality_reflect, response_text

    combo = DivisorCombo.from_json(doc)
    if doc.get("reflect"):
        combo = duality_reflect(combo)
    return response_text(combo)


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
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        _emit({"schema_version": SCHEMA_VERSION, "usage": _usage(argv[0])}, None)
        return 0
    try:
        op, request, out_path = _read_argv(argv)
        doc, code = _RUNNERS[op](request), 0
    except DomainError as exc:
        doc, code = {"error": exc.code, "detail": str(exc)}, 2
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return _parse_error(exc)
    try:
        _emit(doc, out_path)
    except OSError as exc:
        # an unwritable --out path: the error goes to stdout instead
        return _parse_error(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
