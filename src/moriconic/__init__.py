"""Exact toolkit for conics in Grassmannians.

Four computational pillars: GIT stability and stratification of 2x2 Kronecker
modules, the module-to-conic Pluecker construction with elementary
modification of one-parameter families, the Mori chamber lookup for effective
divisors on the conic stable-map space, and exact virtual Poincare polynomial
formulas for the moduli spaces involved.  All arithmetic is exact (integers
and rationals); there is no floating point anywhere.

``import moriconic`` loads no submodule: each public name is imported from
the submodule that owns it when it is first read (PEP 562), and so is each
submodule read as an attribute (``moriconic.chamber``).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "chamber": (
        "ChamberComplex", "ChamberVerdict", "DivisorCombo", "NMode", "build_complex",
        "duality_reflect", "resolve",
    ),
    "conic": (
        "Envelope", "LambdaFamily", "ModificationResult", "PluckerConic", "conic_degree",
        "envelope", "family_conic", "modify_family", "plucker_conic",
    ),
    "errors": (
        "DomainError", "IdenticallyZero", "NonIntegral", "NotDivisible", "NotSemistable",
        "ZeroConic", "ZeroDivisor",
    ),
    "kronecker": (
        "ALL_ZERO", "AllZero", "BinaryForm", "CokernelKind", "KroneckerModule", "LinearForm",
        "QuadricForm", "RatMatrix", "RootKind", "RootStructure", "StabilityClass",
        "StabilizerKind", "Stratum", "Verdict", "Witness", "WitnessKind",
        "classify_stability", "cokernel_kind", "column_minors", "det_quadric", "index_pairs",
        "minor_gcd", "pencil_matrix", "quadratic_gcd", "quadratic_root_structure",
        "quadric_rank", "stratify",
    ),
    "motivic": (
        "Grassmannian", "KontsevichProj", "MbarGr", "MP24m2", "ProjSpace", "SpaceId",
        "Sym2Of", "T4", "grassmannian_poincare", "kontsevich_proj_poincare",
        "mbar_gr_poincare", "mp2_4m2_poincare", "poincare", "proj_space_poincare",
        "sym2_poincare", "t4_poincare",
    ),
    "packing": (),
    "plucker": (),
    "qpoly": ("QPoly",),
    "strata": (),
    "wire": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return __all__
