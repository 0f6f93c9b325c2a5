"""Differential test of the packed conic kernel against the Fraction references.

plucker_conic and family_conic read every minor out of fixed-width slots of
one big integer, and envelope its rows out of the packed coefficient slices
(wire.pack_slots).  Here each result is compared with conftest's Fraction
wedge (ref_minors), Fraction Gauss-Jordan (ref_rref) and a sympy gcd, and the
conic request's stdout with the document they make, byte for byte.  Entries
of 2^9 keep the minors in 4-byte slots; entries of 2^31 and 10^12 need slots
wider than 8 bytes, the widths read in Python rather than C.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy as sp

from moriconic import (
    KroneckerModule,
    LambdaFamily,
    LinearForm,
    ZeroConic,
    conic_degree,
    envelope,
    family_conic,
    plucker_conic,
)
from moriconic.wire import slot_width

from conftest import cli_stdout, ref_minors, ref_rref, ref_stdout

MAGNITUDES = {"2^9": 2**9, "2^31": 2**31, "10^12": 10**12, "p/q": None}
# Each shape's envelope dimension and conic degree: a generic pencil; no t in
# the first row, so s divides every minor and st and t^2 never meet; a
# diagonal pencil, whose minors are multiples of st; a scalar one, whose
# conic is zero.
SHAPES = {"generic": (3, 2), "rank 2": (2, 1), "rank 1": (1, 0), "zero": None}


def entry(rng, magnitude):
    if magnitude is None:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 9)))
    return Fraction(rng.choice((-1, 1)) * (magnitude - rng.randrange(5)))


def pencil_rows(rng, n, magnitude, shape):
    """(a1, b1, a2, b2): the pencil rows s * a1 + t * b1 and s * a2 + t * b2.
    Past n = 2 one middle column is zero, so some slots between nonzero ones
    hold zero minors."""
    rows = [[entry(rng, magnitude) for _ in range(n + 1)] for _ in range(4)]
    for row in rows:
        if n > 2:
            row[n // 2] = Fraction(0)
    zero = [Fraction(0)] * (n + 1)
    a1, b1, a2, b2 = rows
    if shape == "rank 2":
        b1 = zero
    elif shape == "rank 1":
        b1, a2 = zero, zero
    elif shape == "zero":
        b1, a2, b2 = zero, zero, a1
    return a1, b1, a2, b2


def reference_degree(minors) -> int:
    """2 minus the degree of the sympy gcd of a basis of the minors' span."""
    s, t = sp.symbols("s t")
    forms = [sp.Rational(x.numerator, x.denominator) * s**2
             + sp.Rational(y.numerator, y.denominator) * s * t
             + sp.Rational(z.numerator, z.denominator) * t**2
             for x, y, z in ref_rref(minors)]
    return 2 - sp.Poly(sp.gcd_list(forms), s, t).total_degree()


def reference_document(n, minors):
    """The conic request's document, its envelope the reduced echelon form of
    the three coefficient slices."""
    basis = ref_rref([[m[k] for m in minors] for k in range(3)])
    return {
        "n": n,
        "coords": {f"{i},{j}": [str(x) for x in m] for (i, j), m in zip(combinations(range(n + 1), 2), minors)},
        "envelope": {"dim": len(basis), "basis": [[str(x) for x in row] for row in basis]},
        "degree": reference_degree(minors),
    }


def module_doc(n, rows):
    a1, b1, a2, b2 = ([str(x) for x in row] for row in rows)
    return json.dumps({"n": n, "matrix": [[a1, b1], [a2, b2]]})


@pytest.mark.parametrize("n", [2, 11, 60])
@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("shape", SHAPES)
def test_conic_matches_fraction_references(n, magnitude, shape):
    rng = random.Random(f"{n}:{magnitude}:{shape}")
    rows = pencil_rows(rng, n, MAGNITUDES[magnitude], shape)
    M = KroneckerModule(n, *(LinearForm(n, row) for row in rows))
    if MAGNITUDES[magnitude] is not None:
        # the module is stored over 1, and the minors' slots are as wide as claimed
        assert M.den == 1
        wide = slot_width(4 * max(abs(x) for x in M.nums) ** 2) > 8
        assert wide == (magnitude != "2^9")
    c = plucker_conic(M)
    minors = ref_minors(*rows)
    assert c.entries == tuple(minors)
    code, out = cli_stdout("conic", "--json", module_doc(n, rows))
    if SHAPES[shape] is None:
        assert c.is_zero
        for step in (envelope, conic_degree):
            with pytest.raises(ZeroConic):
                step(c)
        assert code == 2 and json.loads(out)["error"] == "zero_conic"
        return
    doc = reference_document(n, minors)
    assert (doc["envelope"]["dim"], doc["degree"]) == SHAPES[shape]
    env = envelope(c)
    assert (env.dim, [[str(x) for x in row] for row in env.basis]) == (doc["envelope"]["dim"], doc["envelope"]["basis"])
    assert conic_degree(c) == doc["degree"]
    assert (code, out) == (0, ref_stdout(doc))


@pytest.mark.parametrize("n", [2, 11, 60])
@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("lam", ["-7/3", "5/2"])
def test_family_conic_at_a_rational_lambda(n, magnitude, lam):
    # each entry a polynomial of degree 0 to 2 in lambda, with linear form coefficients
    rng = random.Random(f"{n}:{magnitude}:{lam}")
    entries = [[[entry(rng, MAGNITUDES[magnitude]) for _ in range(n + 1)] for _ in range(rng.randint(1, 3))]
               for _ in range(4)]
    value = Fraction(lam)
    rows = [[sum(value**k * f[i] for k, f in enumerate(forms)) for i in range(n + 1)] for forms in entries]
    family = LambdaFamily(n, [[[LinearForm(n, f) for f in entries[r + c]] for c in (0, 1)] for r in (0, 2)])
    assert family_conic(family, lam).entries == tuple(ref_minors(*rows))
    assert family_conic(family, value) == family_conic(family, lam)
