"""Chamber lookup for effective divisors on the conic stable-map space.

The effective cone is simplicial on Dunb, Ddeg, Delta; a nonnegative
combination of the seven named generators is located inside a fixed 2D
cross-section of that cone, triangulated into 9 open triangles, 15 open
edges, and 7 vertices.  Each cell carries the birational model its divisors
define.  The point is located in the closed triangle containing it; its cell
is spanned by the corners with a positive barycentric coordinate.  Those
signs are exact integer orientation tests, so a combination on a wall is
assigned the wall's own label, never a neighbouring chamber's.

The cross-section coordinates realize the required incidences: Dunb, H11, T
are collinear; Ddeg, H2, T are collinear; and P is the intersection of the
segments H11-Ddeg and H2-Dunb.

Two label tables share this geometry: the generic one (ambient parameter
n > 3) and the self-dual n = 3 one, where reflection through the vertical
Delta-P axis (swapping Dunb with Ddeg and H11 with H2) conjugates models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import ZeroDivisor
from .linalg import as_rat

GENERATORS = ("Dunb", "Ddeg", "Delta", "T", "H11", "H2", "P")

_COORDS: dict[str, tuple[Fraction, Fraction]] = {
    "Dunb": (Fraction(0), Fraction(0)),
    "Ddeg": (Fraction(10), Fraction(0)),
    "Delta": (Fraction(5), Fraction(7)),
    "T": (Fraction(5), Fraction(14, 3)),
    "H11": (Fraction(5, 2), Fraction(7, 3)),
    "H2": (Fraction(15, 2), Fraction(7, 3)),
    "P": (Fraction(5), Fraction(14, 9)),
}

# The coordinates times 18, their common denominator, for integer sign tests.
_GRID = {g: (int(x * 18), int(y * 18)) for g, (x, y) in _COORDS.items()}


class NMode(Enum):
    GT3 = "gt3"
    EQ3 = "eq3"


@dataclass(frozen=True)
class DivisorCombo:
    """Nonnegative rational combination of the seven generators."""

    coeffs: tuple[tuple[str, Fraction], ...]
    n_mode: NMode = NMode.GT3

    @classmethod
    def make(cls, coeffs: dict, n_mode: NMode = NMode.GT3) -> "DivisorCombo":
        if not isinstance(coeffs, dict):
            raise ValueError("coeffs must be a JSON object of generator coefficients")
        table = {}
        for name, value in coeffs.items():
            if name not in GENERATORS:
                raise ValueError(f"unknown divisor generator: {name!r}")
            v = as_rat(value)
            if v < 0:
                raise ValueError(f"coefficient of {name} must be nonnegative")
            table[name] = v
        return cls(tuple((g, table.get(g, Fraction(0))) for g in GENERATORS), n_mode)

    def coefficient(self, name: str) -> Fraction:
        return dict(self.coeffs)[name]

    def to_json(self) -> dict:
        return {
            "n_mode": self.n_mode.value,
            "coeffs": {g: str(v) for g, v in self.coeffs if v != 0},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DivisorCombo":
        mode = NMode(doc.get("n_mode", "gt3"))
        return cls.make(doc.get("coeffs"), mode)


@dataclass(frozen=True)
class Cell:
    dim: int
    generators: tuple[str, ...]


@dataclass(frozen=True)
class ChamberVerdict:
    case_id: int
    model: str
    description: str
    cell: Cell

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "model": self.model,
            "description": self.description,
            "cell": {"dim": self.cell.dim, "generators": list(self.cell.generators)},
        }


Label = tuple[int, str, str]

# Case tables: vertices by generator, edges and triangles by generator set.

_GT3_TRIANGLES: dict[frozenset, Label] = {
    frozenset({"H11", "H2", "T"}): (1, "M", "the conic stable-map space itself"),
    frozenset({"H11", "T", "Delta"}): (
        11, "R", "normalization of the incidence between the dual sheaf moduli and the quasi-map model"),
    frozenset({"H2", "T", "Delta"}): (
        6, "X1modG", "intermediate space of the partial desingularization of the Kronecker moduli"),
    frozenset({"H11", "Dunb", "Delta"}): (
        10, "KS", "relative Kronecker/sheaf moduli over Gr(4, V*)"),
    frozenset({"H2", "Ddeg", "Delta"}): (
        5, "K", "Kronecker moduli space, a component of the sheaf moduli on P(V)"),
    frozenset({"H11", "H2", "P"}): (3, "H", "Hilbert scheme of conics"),
    frozenset({"H11", "P", "Dunb"}): (
        9, "B", "blow-up of the Grassmannian bundle along its orthogonal Grassmannian bundle"),
    frozenset({"H2", "P", "Ddeg"}): (
        7, "Gtilde", "flip of the Grassmannian bundle over the envelope image"),
    frozenset({"Dunb", "P", "Ddeg"}): (
        8, "G", "Grassmannian bundle Gr(3, wedge^2 S) over Gr(4, V*)"),
}

_GT3_EDGES: dict[frozenset, Label] = {
    frozenset({"H11", "H2"}): (2, "C", "normalization of the Chow variety of conics"),
    frozenset({"T", "Delta"}): (4, "U", "normalized image in the quasi-map quotient"),
    frozenset({"H11", "Delta"}): (
        12, "L", "closure of the locus of sheaves on smooth quadrics, normalized"),
    frozenset({"H2", "Delta"}): (5, "K", "Kronecker moduli space, a component of the sheaf moduli on P(V)"),
    frozenset({"H11", "T"}): (
        11, "R", "normalization of the incidence between the dual sheaf moduli and the quasi-map model"),
    frozenset({"H2", "T"}): (
        6, "X1modG", "intermediate space of the partial desingularization of the Kronecker moduli"),
    frozenset({"H11", "P"}): (14, "Ghat", "blow-up of the envelope image along an orthogonal Grassmannian bundle"),
    frozenset({"H2", "P"}): (7, "Gtilde", "flip of the Grassmannian bundle over the envelope image"),
    frozenset({"P", "Ddeg"}): (13, "Gbar", "normalization of the image of the envelope map"),
    frozenset({"P", "Dunb"}): (8, "G", "Grassmannian bundle Gr(3, wedge^2 S) over Gr(4, V*)"),
    frozenset({"H11", "Dunb"}): (10, "KS", "relative Kronecker/sheaf moduli over Gr(4, V*)"),
    frozenset({"H2", "Ddeg"}): (5, "K", "Kronecker moduli space, a component of the sheaf moduli on P(V)"),
    frozenset({"Delta", "Ddeg"}): (15, "Point", "a point"),
    frozenset({"Delta", "Dunb"}): (16, "Gr4Vdual", "the Grassmannian Gr(4, V*) = Gr(n-3, V)"),
    frozenset({"Dunb", "Ddeg"}): (16, "Gr4Vdual", "the Grassmannian Gr(4, V*) = Gr(n-3, V)"),
}

_GT3_VERTICES: dict[str, Label] = {
    "H11": (12, "L", "closure of the locus of sheaves on smooth quadrics, normalized"),
    "H2": (5, "K", "Kronecker moduli space, a component of the sheaf moduli on P(V)"),
    "T": (4, "U", "normalized image in the quasi-map quotient"),
    "P": (13, "Gbar", "normalization of the image of the envelope map"),
    "Delta": (15, "Point", "a point"),
    "Ddeg": (15, "Point", "a point"),
    "Dunb": (16, "Gr4Vdual", "the Grassmannian Gr(4, V*) = Gr(n-3, V)"),
}

_EQ3_K = (3, "K", "Kronecker moduli = sheaf moduli on P^3 = the double symmetroid")
_EQ3_KSTAR = (8, "Kstar", "dual Kronecker moduli = sheaf moduli on the dual P^3")
_EQ3_X1 = (4, "X1modG", "intermediate partial desingularization of the Kronecker moduli")
_EQ3_X1STAR = (9, "X1modG_star", "intermediate partial desingularization of the dual Kronecker moduli")
_EQ3_BL11 = (5, "BlG_sigma11", "blow-up of Gr(3, wedge^2 V) along the first orthogonal Grassmannian")
_EQ3_BL2 = (7, "BlG_sigma2", "blow-up of Gr(3, wedge^2 V) along the second orthogonal Grassmannian")
_EQ3_GR3 = (6, "Gr3w2V", "the Grassmannian Gr(3, wedge^2 V)")
_EQ3_U = (10, "U", "normalized image in the quasi-map quotient")
_EQ3_POINT = (12, "Point", "a point")

_EQ3_TRIANGLES: dict[frozenset, Label] = {
    frozenset({"H11", "H2", "T"}): (1, "M", "the conic stable-map space itself"),
    frozenset({"H11", "H2", "P"}): (2, "H", "Hilbert scheme of conics"),
    frozenset({"H2", "Ddeg", "Delta"}): _EQ3_K,
    frozenset({"H2", "T", "Delta"}): _EQ3_X1,
    frozenset({"H2", "P", "Ddeg"}): _EQ3_BL11,
    frozenset({"Dunb", "P", "Ddeg"}): _EQ3_GR3,
    frozenset({"H11", "P", "Dunb"}): _EQ3_BL2,
    frozenset({"H11", "Dunb", "Delta"}): _EQ3_KSTAR,
    frozenset({"H11", "T", "Delta"}): _EQ3_X1STAR,
}

_EQ3_EDGES: dict[frozenset, Label] = {
    frozenset({"H11", "H2"}): (11, "C", "normalization of the Chow variety of conics"),
    frozenset({"T", "Delta"}): _EQ3_U,
    frozenset({"H2", "Delta"}): _EQ3_K,
    frozenset({"H2", "Ddeg"}): _EQ3_K,
    frozenset({"H2", "T"}): _EQ3_X1,
    frozenset({"H2", "P"}): _EQ3_BL11,
    frozenset({"P", "Ddeg"}): _EQ3_GR3,
    frozenset({"P", "Dunb"}): _EQ3_GR3,
    frozenset({"H11", "P"}): _EQ3_BL2,
    frozenset({"H11", "Delta"}): _EQ3_KSTAR,
    frozenset({"H11", "Dunb"}): _EQ3_KSTAR,
    frozenset({"H11", "T"}): _EQ3_X1STAR,
    frozenset({"Delta", "Ddeg"}): _EQ3_POINT,
    frozenset({"Delta", "Dunb"}): _EQ3_POINT,
    frozenset({"Dunb", "Ddeg"}): _EQ3_POINT,
}

_EQ3_VERTICES: dict[str, Label] = {
    "H11": _EQ3_KSTAR,
    "H2": _EQ3_K,
    "T": _EQ3_U,
    "P": _EQ3_GR3,
    "Delta": _EQ3_POINT,
    "Ddeg": _EQ3_POINT,
    "Dunb": _EQ3_POINT,
}


_TABLES = {
    NMode.GT3: (_GT3_VERTICES, _GT3_EDGES, _GT3_TRIANGLES),
    NMode.EQ3: (_EQ3_VERTICES, _EQ3_EDGES, _EQ3_TRIANGLES),
}


@dataclass(frozen=True)
class ChamberComplex:
    """The labeled cell complex of the cross-section for one mode."""

    n_mode: NMode
    coords: tuple[tuple[str, tuple[Fraction, Fraction]], ...]
    vertices: tuple[tuple[str, Label], ...]
    edges: tuple[tuple[frozenset, Label], ...]
    triangles: tuple[tuple[frozenset, Label], ...]


def build_complex(n_mode: NMode = NMode.GT3) -> ChamberComplex:
    """The cross-section complex with the label table for the given mode."""
    vertices, edges, triangles = _TABLES[n_mode]
    return ChamberComplex(
        n_mode,
        tuple(_COORDS.items()),
        tuple(vertices.items()),
        tuple(edges.items()),
        tuple(triangles.items()),
    )


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _sorted_gens(names) -> tuple[str, ...]:
    return tuple(sorted(names, key=GENERATORS.index))


def _counterclockwise(a, b, c) -> tuple[str, str, str]:
    return (a, b, c) if _orient(_GRID[a], _GRID[b], _GRID[c]) > 0 else (a, c, b)


# The 9 triangles (the same in both modes), corners in counterclockwise order.
_TRIANGLES = tuple(_counterclockwise(*_sorted_gens(gens)) for gens in _GT3_TRIANGLES)


def resolve(d: DivisorCombo) -> ChamberVerdict:
    """Locate the combination's cross-section point and return its cell's model.

    With the coefficients cleared to integer weights of sum w, the point is
    p / w for p the weighted sum of the _GRID points; the sign tests compare
    p with the grid scaled by w, all in integers.  The first closed triangle
    whose three barycentric signs are all >= 0 contains the point, and the
    corners with a positive sign span the cell.
    """
    den = lcm(*(v.denominator for _, v in d.coeffs))
    weights = [(g, v.numerator * (den // v.denominator)) for g, v in d.coeffs]
    w = sum(k for _, k in weights)
    if w == 0:
        raise ZeroDivisor("all divisor coefficients vanish")
    p = (sum(k * _GRID[g][0] for g, k in weights), sum(k * _GRID[g][1] for g, k in weights))
    grid = {g: (w * x, w * y) for g, (x, y) in _GRID.items()}
    for a, b, c in _TRIANGLES:
        ga, gb, gc = grid[a], grid[b], grid[c]
        signs = (_orient(gb, gc, p), _orient(gc, ga, p), _orient(ga, gb, p))
        if min(signs) >= 0:
            break
    else:
        raise AssertionError("cross-section point escaped the cell partition")
    gens = _sorted_gens(g for g, s in zip((a, b, c), signs) if s)
    table = _TABLES[d.n_mode][len(gens) - 1]
    case, model, desc = table[gens[0] if len(gens) == 1 else frozenset(gens)]
    return ChamberVerdict(case, model, desc, Cell(len(gens) - 1, gens))


_DUALITY_SWAP = {"Dunb": "Ddeg", "Ddeg": "Dunb", "H11": "H2", "H2": "H11"}


def duality_reflect(d: DivisorCombo) -> DivisorCombo:
    """The reflection through the Delta-P axis: swaps Dunb/Ddeg and H11/H2."""
    coeffs = {_DUALITY_SWAP.get(g, g): v for g, v in d.coeffs}
    return DivisorCombo.make(coeffs, d.n_mode)
