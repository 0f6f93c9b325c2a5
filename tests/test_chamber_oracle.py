"""Soundness of the chamber lookup against sympy's plane geometry.

The cross-section point of each combination is rebuilt with sympy
Rationals, and sympy's Point, Segment and Triangle decide whether it lies
in the open cell `resolve` returned.  Weights are zero often, and half the
combinations are supported on one line of the arrangement, so walls and
vertices come up as often as open triangles.
"""

from fractions import Fraction

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from moriconic import DivisorCombo, NMode, build_complex, resolve
from moriconic.chamber import _COORDS, GENERATORS

# Generators on one line of the cross-section, collinear triples included.
LINES = (
    ("Dunb", "H11", "T"),
    ("Ddeg", "H2", "T"),
    ("Dunb", "P", "H2"),
    ("Ddeg", "P", "H11"),
    ("Delta", "T", "P"),
    ("Dunb", "Ddeg"),
    ("Dunb", "Delta"),
    ("Ddeg", "Delta"),
    ("H11", "H2"),
    ("H11", "Delta"),
    ("H2", "Delta"),
)
WEIGHTS = (0, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(2, 3))


@st.composite
def combos(draw):
    support = draw(st.sampled_from((GENERATORS,) + LINES))
    coeffs = {g: draw(st.sampled_from(WEIGHTS)) for g in support}
    assume(any(coeffs.values()))
    return DivisorCombo.make(coeffs, draw(st.sampled_from(tuple(NMode))))


def sympy_point(name):
    return sp.Point(*(sp.Rational(c.numerator, c.denominator) for c in _COORDS[name]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(combos())
def test_resolve_returns_the_open_cell_holding_the_point(d):
    total = sum(sp.Rational(v.numerator, v.denominator) for _, v in d.coeffs)
    point = sp.Point(0, 0)
    for g, v in d.coeffs:
        point += sympy_point(g) * sp.Rational(v.numerator, v.denominator) / total

    verdict = resolve(d)
    gens = verdict.cell.generators
    assert list(gens) == sorted(set(gens), key=GENERATORS.index)
    corners = [sympy_point(g) for g in gens]
    cx = build_complex(d.n_mode)
    if verdict.cell.dim == 0:
        assert point == corners[0]
        table, key = cx.vertices, gens[0]
    elif verdict.cell.dim == 1:
        assert sp.Segment(*corners).contains(point) and point not in corners
        table, key = cx.edges, frozenset(gens)
    else:
        assert verdict.cell.dim == 2
        assert sp.Triangle(*corners).encloses_point(point)
        table, key = cx.triangles, frozenset(gens)
    assert (verdict.case_id, verdict.model, verdict.description) == dict(table)[key]
