"""Chamber lookup for effective divisors on the conic stable-map space.

The effective cone is simplicial on Dunb, Ddeg, Delta; a nonnegative
combination of the seven named generators is located inside a fixed 2D
cross-section of that cone, triangulated into 9 open triangles, 15 open
edges, and 7 vertices.  The point is located in the closed triangle
containing it; its cell is spanned by the corners with a positive
barycentric coordinate.  Each of those signs is the sign of a fixed integer
linear form in the seven numerators, built once from the cross-section, so
a combination on a wall is assigned the wall's own label, never a
neighbouring chamber's.  Each cell's CLI response is one fixed text per mode,
and chamber_text serves a request document with it.

The cross-section coordinates realize the required incidences: Dunb, H11, T
are collinear; Ddeg, H2, T are collinear; and P is the intersection of the
segments H11-Ddeg and H2-Dunb.

_MODELS writes each birational model once per mode, with its case, identifier,
description and the cells whose divisors define it.  The modes share the
geometry: the generic one (ambient parameter n > 3) and the self-dual n = 3
one, where reflection through the vertical Delta-P axis (swapping Dunb with
Ddeg and H11 with H2) conjugates models.
"""

from enum import Enum
from operator import mul, neg
from typing import NamedTuple

from .errors import ZeroDivisor
from .wire import SCHEMA_VERSION, fraction_type, json_strings, rat_strings, rationals

GENERATORS = ("Dunb", "Ddeg", "Delta", "T", "H11", "H2", "P")
# The index of each generator in GENERATORS.
_INDEX = {g: i for i, g in enumerate(GENERATORS)}

# The cross-section coordinates times 18, their common denominator, so that
# every sign test is in integers: Dunb (0, 0), Ddeg (10, 0), Delta (5, 7),
# T (5, 14/3), H11 (5/2, 7/3), H2 (15/2, 7/3) and P (5, 14/9).
_GRID = {
    "Dunb": (0, 0),
    "Ddeg": (180, 0),
    "Delta": (90, 126),
    "T": (90, 84),
    "H11": (45, 42),
    "H2": (135, 42),
    "P": (90, 28),
}


class NMode(Enum):
    GT3 = "gt3"
    EQ3 = "eq3"


class DivisorCombo(NamedTuple):
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
        if not coeffs.keys() <= _INDEX.keys():
            unknown = next(name for name in coeffs if name not in _INDEX)
            raise ValueError(f"unknown divisor generator: {unknown!r}")
        nums, den = rationals(coeffs.values())
        if min(nums, default=0) < 0:
            negative = next(name for name, x in zip(coeffs, nums) if x < 0)
            raise ValueError(f"coefficient of {negative} must be nonnegative")
        values = [0] * len(GENERATORS)
        for name, x in zip(coeffs, nums):
            values[_INDEX[name]] = x
        return cls(tuple(values), den, n_mode)

    @property
    def coeffs(self) -> "tuple[tuple[str, Fraction], ...]":
        Fraction = fraction_type()
        return tuple((g, Fraction(x, self.den)) for g, x in zip(GENERATORS, self.nums))

    def coefficient(self, name: str) -> "Fraction":
        return fraction_type()(self.nums[GENERATORS.index(name)], self.den)

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


class Cell(NamedTuple):
    dim: int
    generators: tuple[str, ...]


class ChamberVerdict(NamedTuple):
    case_id: int
    model: str
    description: str
    cell: Cell


Label = tuple[int, str, str]

# Each model once per mode: (case, identifier, description, cells), a cell
# written as the generators spanning it, in GENERATORS order: that tuple is
# the cell's key, and a response lists the generators in it.
_MODELS: dict[NMode, tuple[tuple[int, str, str, tuple[str, ...]], ...]] = {
    NMode.GT3: (
        (1, "M", "the conic stable-map space itself", ("T H11 H2",)),
        (2, "C", "normalization of the Chow variety of conics", ("H11 H2",)),
        (3, "H", "Hilbert scheme of conics", ("H11 H2 P",)),
        (4, "U", "normalized image in the quasi-map quotient", ("Delta T", "T")),
        (5, "K", "Kronecker moduli space, a component of the sheaf moduli on P(V)",
         ("Ddeg Delta H2", "Delta H2", "Ddeg H2", "H2")),
        (6, "X1modG", "intermediate space of the partial desingularization of the Kronecker moduli",
         ("Delta T H2", "T H2")),
        (7, "Gtilde", "flip of the Grassmannian bundle over the envelope image", ("Ddeg H2 P", "H2 P")),
        (8, "G", "Grassmannian bundle Gr(3, wedge^2 S) over Gr(4, V*)", ("Dunb Ddeg P", "Dunb P")),
        (9, "B", "blow-up of the Grassmannian bundle along its orthogonal Grassmannian bundle",
         ("Dunb H11 P",)),
        (10, "KS", "relative Kronecker/sheaf moduli over Gr(4, V*)", ("Dunb Delta H11", "Dunb H11")),
        (11, "R", "normalization of the incidence between the dual sheaf moduli and the quasi-map model",
         ("Delta T H11", "T H11")),
        (12, "L", "closure of the locus of sheaves on smooth quadrics, normalized", ("Delta H11", "H11")),
        (13, "Gbar", "normalization of the image of the envelope map", ("Ddeg P", "P")),
        (14, "Ghat", "blow-up of the envelope image along an orthogonal Grassmannian bundle", ("H11 P",)),
        (15, "Point", "a point", ("Ddeg Delta", "Delta", "Ddeg")),
        (16, "Gr4Vdual", "the Grassmannian Gr(4, V*) = Gr(n-3, V)", ("Dunb Delta", "Dunb Ddeg", "Dunb")),
    ),
    NMode.EQ3: (
        (1, "M", "the conic stable-map space itself", ("T H11 H2",)),
        (2, "H", "Hilbert scheme of conics", ("H11 H2 P",)),
        (3, "K", "Kronecker moduli = sheaf moduli on P^3 = the double symmetroid",
         ("Ddeg Delta H2", "Delta H2", "Ddeg H2", "H2")),
        (4, "X1modG", "intermediate partial desingularization of the Kronecker moduli",
         ("Delta T H2", "T H2")),
        (5, "BlG_sigma11", "blow-up of Gr(3, wedge^2 V) along the first orthogonal Grassmannian",
         ("Ddeg H2 P", "H2 P")),
        (6, "Gr3w2V", "the Grassmannian Gr(3, wedge^2 V)", ("Dunb Ddeg P", "Ddeg P", "Dunb P", "P")),
        (7, "BlG_sigma2", "blow-up of Gr(3, wedge^2 V) along the second orthogonal Grassmannian",
         ("Dunb H11 P", "H11 P")),
        (8, "Kstar", "dual Kronecker moduli = sheaf moduli on the dual P^3",
         ("Dunb Delta H11", "Delta H11", "Dunb H11", "H11")),
        (9, "X1modG_star", "intermediate partial desingularization of the dual Kronecker moduli",
         ("Delta T H11", "T H11")),
        (10, "U", "normalized image in the quasi-map quotient", ("Delta T", "T")),
        (11, "C", "normalization of the Chow variety of conics", ("H11 H2",)),
        (12, "Point", "a point", ("Ddeg Delta", "Dunb Delta", "Dunb Ddeg", "Delta", "Ddeg", "Dunb")),
    ),
}


# Per mode, each cell's label by the generators spanning it.
_CELLS: dict[NMode, dict[tuple[str, ...], Label]] = {
    mode: {tuple(cell.split()): (case, model, desc) for case, model, desc, cells in rows for cell in cells}
    for mode, rows in _MODELS.items()
}


# Per mode, each cell's whole CLI response document, as the CLI's encoder
# writes it: sorted keys, compact, and no name or description needs escaping.
_TEXTS = {
    mode: {
        gens: (f'{{"case":{case},"cell":{{"dim":{len(gens) - 1},"generators":{json_strings(gens)}}},'
               f'"description":"{desc}","model":"{model}","schema_version":{SCHEMA_VERSION}}}')
        for gens, (case, model, desc) in cells.items()
    }
    for mode, cells in _CELLS.items()
}


class ChamberComplex(NamedTuple):
    """The labeled cell complex of the cross-section for one mode."""

    n_mode: NMode
    coords: tuple[tuple[str, tuple["Fraction", "Fraction"]], ...]
    vertices: tuple[tuple[str, Label], ...]
    edges: tuple[tuple[frozenset, Label], ...]
    triangles: tuple[tuple[frozenset, Label], ...]


def build_complex(n_mode: NMode = NMode.GT3) -> ChamberComplex:
    """The cross-section complex with the labels of the given mode."""
    Fraction = fraction_type()
    cells = _CELLS[n_mode].items()
    return ChamberComplex(
        n_mode,
        tuple((g, (Fraction(x, 18), Fraction(y, 18))) for g, (x, y) in _GRID.items()),
        tuple((gens[0], label) for gens, label in cells if len(gens) == 1),
        tuple((frozenset(gens), label) for gens, label in cells if len(gens) == 2),
        tuple((frozenset(gens), label) for gens, label in cells if len(gens) == 3),
    )


def _corner(x: str, y: str, z: str) -> tuple[int, ...]:
    """The weights whose dot product with nums has the sign of w times corner
    x's barycentric coordinate in the triangle x, y, z: the cross products
    (G_z - G_y) x (G_g - G_y) over the generators' points G_g, which give the
    side of the line y -> z that the point p / w lies on, turned to be
    positive at x."""
    (yx, yy), (zx, zy) = _GRID[y], _GRID[z]
    side = tuple((zx - yx) * (gy - yy) - (zy - yy) * (gx - yx) for gx, gy in _GRID.values())
    return side if side[GENERATORS.index(x)] > 0 else tuple(map(neg, side))


# Per triangle, in _CELLS order, with corners x, y, z in GENERATORS order: the
# weights of x, y and z, and the cell spanned by each set of corners, indexed
# by its bit mask (x the lowest bit).  The 9 triangles are the same in both modes.
_LOCATOR = tuple(
    ((_corner(x, y, z), _corner(y, z, x), _corner(z, x, y)),
     ((), (x,), (y,), (x, y), (z,), (x, z), (y, z), (x, y, z)))
    for x, y, z in (gens for gens in _CELLS[NMode.GT3] if len(gens) == 3)
)


def _cell(d: DivisorCombo) -> tuple[str, ...]:
    """The generators spanning the cell of the combination's cross-section point.

    The point is p / w for p the nums-weighted sum of the _GRID points and w
    the sum of nums (the common denominator cancels).  A corner's barycentric
    sign is that of one integer dot product of nums with its _LOCATOR weights,
    taken with nums negated when w < 0.  The first closed triangle whose three
    signs are all >= 0 contains the point, and the corners with a positive
    sign span the cell.
    """
    nums = d.nums
    w = sum(nums)
    if w == 0:
        raise ZeroDivisor("all divisor coefficients vanish")
    if w < 0:
        nums = tuple(map(neg, nums))
    for (oa, ob, oc), faces in _LOCATOR:
        sa = sum(map(mul, oa, nums))
        if sa >= 0:
            sb = sum(map(mul, ob, nums))
            if sb >= 0:
                sc = sum(map(mul, oc, nums))
                if sc >= 0:
                    return faces[(sa > 0) | (sb > 0) << 1 | (sc > 0) << 2]
    raise AssertionError("cross-section point escaped the cell partition")


def resolve(d: DivisorCombo) -> ChamberVerdict:
    """Locate the combination's cross-section point and return its cell's model."""
    gens = _cell(d)
    case, model, desc = _CELLS[d.n_mode][gens]
    return ChamberVerdict(case, model, desc, Cell(len(gens) - 1, gens))


# Position i of a reflected combination holds the coefficient of GENERATORS[_REFLECTED[i]].
_REFLECTED = tuple(map(GENERATORS.index, ("Ddeg", "Dunb", "Delta", "T", "H2", "H11", "P")))


def duality_reflect(d: DivisorCombo) -> DivisorCombo:
    """The reflection through the Delta-P axis: swaps Dunb/Ddeg and H11/H2."""
    return DivisorCombo(tuple(d.nums[i] for i in _REFLECTED), d.den, d.n_mode)


def chamber_text(doc: dict) -> str:
    """The CLI chamber document of a request document, schema_version included:
    the cell of its combination, reflected first when its "reflect" is true."""
    d = DivisorCombo.from_json(doc)
    if doc.get("reflect"):
        d = duality_reflect(d)
    return _TEXTS[d.n_mode][_cell(d)]
