"""Differential test of the integer decision in strata.

strata writes the stability and stratify documents from decide's wire strings
and integers; kronecker builds the records from the same decide, and linalg
the root structure from the same root_points.  Here the texts are compared
with the documents conftest writes from the records, the strata with the
builders' own, and quadratic_root_structure with conftest's Fraction
reference, on every orbit type at several n and on many zero-heavy n = 2
modules, where the special cases (a zero column, Y0, Z0) live.
"""

import json
import random
from fractions import Fraction

import pytest

from moriconic import (
    ALL_ZERO,
    BinaryForm,
    KroneckerModule,
    Stratum,
    classify_stability,
    minor_gcd,
    quadratic_root_structure,
)
from moriconic import strata

from conftest import (
    NORMAL_FORM_BUILDERS,
    cli_stdout,
    irrational_diagonalizable_module,
    random_sl2,
    ref_root_structure,
    reference_stability_stdout,
    reference_stratify_stdout,
)

# Each orbit type's builder, and Y1 with irrational roots as well.
KINDS = [*NORMAL_FORM_BUILDERS.items(), (Stratum.Y1, irrational_diagonalizable_module)]


def assert_matches_the_references(M: KroneckerModule) -> None:
    """strata's texts of M are the documents written from M's records, and the
    root structure of M's minor gcd, and of a p/q multiple, is the reference's."""
    assert strata.stability_text(M.to_json()) + "\n" == reference_stability_stdout(classify_stability(M))
    assert strata.stratify_text(M.to_json()) + "\n" == reference_stratify_stdout(M)
    g = minor_gcd(M)
    if g is ALL_ZERO or g.degree == 0:
        return
    for scale in (1, Fraction(-3, 7)):
        coeffs = [scale * c for c in g.coeffs]
        assert quadratic_root_structure(BinaryForm(g.degree, coeffs)) == ref_root_structure(coeffs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 11, 20])
@pytest.mark.parametrize("stratum, build", KINDS, ids=lambda x: getattr(x, "__name__", None))
def test_every_orbit_type(stratum, build, n):
    rng = random.Random(f"strata:{build.__name__}:{n}")
    for _ in range(4):
        M = build(rng, n).transform(random_sl2(rng), random_sl2(rng))
        assert strata.decide(M.nums)[0] == stratum.value
        assert_matches_the_references(M)
        assert_matches_the_references(M.transpose())
        doc = json.dumps(M.to_json())
        assert cli_stdout("stability", "--json", doc) == (0, strata.stability_text(M.to_json()) + "\n")


def test_zero_heavy_modules():
    rng = random.Random(2025)
    strata_seen, kinds_seen = set(), set()
    for _ in range(5000):
        nums = [rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(12)]
        if not any(nums):
            continue
        M = KroneckerModule.from_ints(2, nums, rng.choice((1, 1, 2, 6)))
        assert_matches_the_references(M)
        stratum, witness = strata.decide(M.nums)
        strata_seen.add(stratum)
        kinds_seen.add(witness and witness[0])
    assert strata_seen == set(strata.CLASSES)
    assert kinds_seen == {"zero_column", "zero_row", "rank_drop", "gcd_certificate", None}
