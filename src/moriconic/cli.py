"""Command-line front end with stable JSON input and output.

Subcommands: poincare, stability, stratify, conic, modify, chamber.  Each
request reads UTF-8 JSON (inline or from a file), writes a single JSON
document, and exits 0 on success, 2 on domain errors, 1 on parse errors.
Output is byte-deterministic: sorted keys, compact separators, rationals as
canonical strings, and a schema_version field pinned to 1.

One table (_COMMANDS) holds a row per subcommand: its flags, the flags of
which exactly one is required, the reader that turns the flag values into a
request document, and the module and function that serve it.  argv is read
once against the row's flags into that document; the runner takes it and
nothing else and returns the whole success document as one JsonText, written
as it is; only error and usage documents go through the JSON encoder.  -h or
--help anywhere prints a usage document built from the same table.
"""

from __future__ import annotations

import json
import sys

from .errors import DomainError
from .wire import INTEGER_RE, SCHEMA_VERSION, JsonText

def _shape(flag: str, dest: str, kind) -> str:
    if kind is bool:
        return flag
    value = "INT" if kind is int else dest.upper() if kind is str else "{" + ",".join(kind) + "}"
    return f"{flag} {value}"


def _usage(op: str) -> str:
    """The usage line of subcommand op, or of every subcommand when op names none."""
    lines = []
    for name, (flags, one_of, _, _, _) in _COMMANDS.items():
        if op not in _COMMANDS or name == op:
            group = " | ".join(_shape(flag, *flags[flag]) for flag in one_of)
            rest = [f"[{_shape(flag, *spec)}]" for flag, spec in flags.items() if flag not in one_of]
            lines.append(" ".join(["moriconic", name, f"({group})" if len(one_of) > 1 else group, *rest]))
    return "\n".join(lines)


def _read_argv(argv) -> tuple[str, dict, str | None]:
    """(subcommand, request document, --out path) for argv, read against _COMMANDS.

    Flags are exact names, given as `--flag value` or `--flag=value`; the
    last occurrence of a flag wins.  A value in its own token may start with
    `-` only as a negative integer.
    """
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"expected a subcommand, one of {', '.join(_COMMANDS)}")
    op = argv[0]
    flags, one_of, read, _, _ = _COMMANDS[op]
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
            if value is None or value.startswith("-") and not INTEGER_RE.fullmatch(value):
                raise ValueError(f"{flag} expects a value")
        if kind is int:
            if not INTEGER_RE.fullmatch(value):
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
    return op, read(values), out_path


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


# Per subcommand, in usage order: each flag's exact name mapped to
# (destination, kind), the flags of which exactly one must be given, the
# reader of its request document, and the module that serves it with the
# function there that takes that document and returns its success document.
# A kind is str, int, bool for a switch, or the tuple of accepted choices.
# The --space choices are the tags of motivic._SPACES and Sym2, written out
# so that only a poincare request loads motivic.
_MODULE = ({"--in": ("in", str), "--json": ("json", str), "--out": ("out", str)},
           ("--in", "--json"), _input_doc)
_COMMANDS = {
    "poincare": ({
        "--space": ("space", ("Pn", "Gr", "MbarP", "MbarGr", "T4", "MP2-4m+2", "Sym2")),
        "--n": ("n", int),
        "--k": ("k", int),
        "--N": ("N", int),
        "--inner": ("inner", str),
        "--out": ("out", str),
    }, ("--space",), _poincare_doc, "motivic", "poincare_text"),
    "stability": (*_MODULE, "strata", "stability_text"),
    "stratify": (*_MODULE, "strata", "stratify_text"),
    "conic": (*_MODULE, "plucker", "conic_text"),
    "modify": (*_MODULE, "plucker", "modify_text"),
    "chamber": ({
        "--coeffs": ("coeffs", str),
        "--in": ("in", str),
        "--n-mode": ("n_mode", ("gt3", "eq3")),
        "--reflect": ("reflect", bool),
        "--out": ("out", str),
    }, ("--coeffs", "--in"), _chamber_doc, "chamber", "chamber_text"),
}


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


def _run(op: str, doc: dict) -> JsonText:
    """Subcommand op's success document for its request document; the
    serving module is loaded on the first request."""
    _, _, _, module, name = _COMMANDS[op]
    return getattr(__import__(f"{__package__}.{module}", fromlist=(name,)), name)(doc)


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
        doc, code = _run(op, request), 0
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
