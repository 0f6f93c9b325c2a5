"""Chamber lookup for effective divisors on the conic stable-map space.

The effective cone is simplicial on Dunb, Ddeg, Delta; a nonnegative
combination of the seven named generators is located inside a fixed 2D
cross-section of that cone, triangulated into 9 open triangles, 15 open
edges, and 7 vertices.  The point is located in the closed triangle
containing it; its cell is spanned by the corners with a positive
barycentric coordinate.  Those signs are exact integer orientation tests, so
a combination on a wall is assigned the wall's own label, never a
neighbouring chamber's.

The cross-section coordinates realize the required incidences: Dunb, H11, T
are collinear; Ddeg, H2, T are collinear; and P is the intersection of the
segments H11-Ddeg and H2-Dunb.

_MODELS writes each birational model once per mode, with its case, identifier,
description and the cells whose divisors define it.  The modes share the
geometry: the generic one (ambient parameter n > 3) and the self-dual n = 3
one, where reflection through the vertical Delta-P axis (swapping Dunb with
Ddeg and H11 with H2) conjugates models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ZeroDivisor
from .linalg import rat_strings, rationals

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
    """Nonnegative rational combination of the seven generators.

    The coefficient of GENERATORS[i] is nums[i] / den, in lowest terms, so
    equal combinations are equal values.  Build one with make or from_json.
    """

    nums: tuple[int, ...]
    den: int
    n_mode: NMode = NMode.GT3

    @classmethod
    def make(cls, coeffs: dict, n_mode: NMode = NMode.GT3) -> "DivisorCombo":
        """The combination of a {generator: rational} mapping.

        Faults are reported by kind, each kind's first in document order: not
        a mapping, an unknown generator, a malformed value, a negative value.
        """
        if not isinstance(coeffs, dict):
            raise ValueError("coeffs must be a JSON object of generator coefficients")
        for name in coeffs:
            if name not in GENERATORS:
                raise ValueError(f"unknown divisor generator: {name!r}")
        nums, den = rationals(coeffs.values())
        table = dict(zip(coeffs, nums))
        for name, x in table.items():
            if x < 0:
                raise ValueError(f"coefficient of {name} must be nonnegative")
        return cls(tuple(table.get(g, 0) for g in GENERATORS), den, n_mode)

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((g, Fraction(x, self.den)) for g, x in zip(GENERATORS, self.nums))

    def coefficient(self, name: str) -> Fraction:
        return Fraction(self.nums[GENERATORS.index(name)], self.den)

    def to_json(self) -> dict:
        strings = rat_strings(self.nums, self.den)
        return {
            "n_mode": self.n_mode.value,
            "coeffs": {g: s for g, x, s in zip(GENERATORS, self.nums, strings) if x},
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

# Each model once per mode: (case, identifier, description, cells), a cell
# written as the generators spanning it.
_MODELS: dict[NMode, tuple[tuple[int, str, str, tuple[str, ...]], ...]] = {
    NMode.GT3: (
        (1, "M", "the conic stable-map space itself", ("H11 H2 T",)),
        (2, "C", "normalization of the Chow variety of conics", ("H11 H2",)),
        (3, "H", "Hilbert scheme of conics", ("H11 H2 P",)),
        (4, "U", "normalized image in the quasi-map quotient", ("T Delta", "T")),
        (5, "K", "Kronecker moduli space, a component of the sheaf moduli on P(V)",
         ("H2 Ddeg Delta", "H2 Delta", "H2 Ddeg", "H2")),
        (6, "X1modG", "intermediate space of the partial desingularization of the Kronecker moduli",
         ("H2 T Delta", "H2 T")),
        (7, "Gtilde", "flip of the Grassmannian bundle over the envelope image", ("H2 P Ddeg", "H2 P")),
        (8, "G", "Grassmannian bundle Gr(3, wedge^2 S) over Gr(4, V*)", ("Dunb P Ddeg", "P Dunb")),
        (9, "B", "blow-up of the Grassmannian bundle along its orthogonal Grassmannian bundle",
         ("H11 P Dunb",)),
        (10, "KS", "relative Kronecker/sheaf moduli over Gr(4, V*)", ("H11 Dunb Delta", "H11 Dunb")),
        (11, "R", "normalization of the incidence between the dual sheaf moduli and the quasi-map model",
         ("H11 T Delta", "H11 T")),
        (12, "L", "closure of the locus of sheaves on smooth quadrics, normalized", ("H11 Delta", "H11")),
        (13, "Gbar", "normalization of the image of the envelope map", ("P Ddeg", "P")),
        (14, "Ghat", "blow-up of the envelope image along an orthogonal Grassmannian bundle", ("H11 P",)),
        (15, "Point", "a point", ("Delta Ddeg", "Delta", "Ddeg")),
        (16, "Gr4Vdual", "the Grassmannian Gr(4, V*) = Gr(n-3, V)", ("Delta Dunb", "Dunb Ddeg", "Dunb")),
    ),
    NMode.EQ3: (
        (1, "M", "the conic stable-map space itself", ("H11 H2 T",)),
        (2, "H", "Hilbert scheme of conics", ("H11 H2 P",)),
        (3, "K", "Kronecker moduli = sheaf moduli on P^3 = the double symmetroid",
         ("H2 Ddeg Delta", "H2 Delta", "H2 Ddeg", "H2")),
        (4, "X1modG", "intermediate partial desingularization of the Kronecker moduli",
         ("H2 T Delta", "H2 T")),
        (5, "BlG_sigma11", "blow-up of Gr(3, wedge^2 V) along the first orthogonal Grassmannian",
         ("H2 P Ddeg", "H2 P")),
        (6, "Gr3w2V", "the Grassmannian Gr(3, wedge^2 V)", ("Dunb P Ddeg", "P Ddeg", "P Dunb", "P")),
        (7, "BlG_sigma2", "blow-up of Gr(3, wedge^2 V) along the second orthogonal Grassmannian",
         ("H11 P Dunb", "H11 P")),
        (8, "Kstar", "dual Kronecker moduli = sheaf moduli on the dual P^3",
         ("H11 Dunb Delta", "H11 Delta", "H11 Dunb", "H11")),
        (9, "X1modG_star", "intermediate partial desingularization of the dual Kronecker moduli",
         ("H11 T Delta", "H11 T")),
        (10, "U", "normalized image in the quasi-map quotient", ("T Delta", "T")),
        (11, "C", "normalization of the Chow variety of conics", ("H11 H2",)),
        (12, "Point", "a point", ("Delta Ddeg", "Delta Dunb", "Dunb Ddeg", "Delta", "Ddeg", "Dunb")),
    ),
}

# Per mode, each cell's label by the set of generators spanning it.
_CELLS: dict[NMode, dict[frozenset, Label]] = {
    mode: {frozenset(cell.split()): (case, model, desc) for case, model, desc, cells in rows for cell in cells}
    for mode, rows in _MODELS.items()
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
    """The cross-section complex with the labels of the given mode."""
    cells = _CELLS[n_mode].items()
    return ChamberComplex(
        n_mode,
        tuple(_COORDS.items()),
        tuple((g, label) for gens, label in cells if len(gens) == 1 for g in gens),
        tuple((gens, label) for gens, label in cells if len(gens) == 2),
        tuple((gens, label) for gens, label in cells if len(gens) == 3),
    )


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _sorted_gens(names) -> tuple[str, ...]:
    return tuple(sorted(names, key=GENERATORS.index))


def _counterclockwise(a, b, c) -> tuple[str, str, str]:
    return (a, b, c) if _orient(_GRID[a], _GRID[b], _GRID[c]) > 0 else (a, c, b)


# The 9 triangles (the same in both modes), corners in counterclockwise order.
_TRIANGLES = tuple(_counterclockwise(*_sorted_gens(gens)) for gens in _CELLS[NMode.GT3] if len(gens) == 3)


def resolve(d: DivisorCombo) -> ChamberVerdict:
    """Locate the combination's cross-section point and return its cell's model.

    The point is p / w for p the nums-weighted sum of the _GRID points and w
    the sum of nums (the common denominator cancels); the sign tests compare
    p with the grid scaled by w, all in integers.  The first closed triangle
    whose three barycentric signs are all >= 0 contains the point, and the
    corners with a positive sign span the cell.
    """
    w = sum(d.nums)
    if w == 0:
        raise ZeroDivisor("all divisor coefficients vanish")
    p = tuple(sum(k * _GRID[g][i] for g, k in zip(GENERATORS, d.nums)) for i in (0, 1))
    grid = {g: (w * x, w * y) for g, (x, y) in _GRID.items()}
    for a, b, c in _TRIANGLES:
        ga, gb, gc = grid[a], grid[b], grid[c]
        signs = (_orient(gb, gc, p), _orient(gc, ga, p), _orient(ga, gb, p))
        if min(signs) >= 0:
            break
    else:
        raise AssertionError("cross-section point escaped the cell partition")
    gens = _sorted_gens(g for g, s in zip((a, b, c), signs) if s)
    case, model, desc = _CELLS[d.n_mode][frozenset(gens)]
    return ChamberVerdict(case, model, desc, Cell(len(gens) - 1, gens))


# Position i of a reflected combination holds the coefficient of GENERATORS[_REFLECTED[i]].
_REFLECTED = tuple(map(GENERATORS.index, ("Ddeg", "Dunb", "Delta", "T", "H2", "H11", "P")))


def duality_reflect(d: DivisorCombo) -> DivisorCombo:
    """The reflection through the Delta-P axis: swaps Dunb/Ddeg and H11/H2."""
    return DivisorCombo(tuple(d.nums[i] for i in _REFLECTED), d.den, d.n_mode)
