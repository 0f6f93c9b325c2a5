"""The record types: immutable tuples of named fields, equal and hashed by
value, written Name(field=value, ...), and checked on construction where
their fields have a domain."""

from fractions import Fraction

import pytest

from moriconic import (
    BinaryForm,
    ChamberComplex,
    ChamberVerdict,
    CokernelKind,
    DivisorCombo,
    Grassmannian,
    KontsevichProj,
    KroneckerModule,
    LambdaFamily,
    LinearForm,
    MbarGr,
    ModificationResult,
    MP24m2,
    NMode,
    PluckerConic,
    ProjSpace,
    QuadricForm,
    RatMatrix,
    RootStructure,
    StabilityClass,
    Sym2Of,
    T4,
    Witness,
    WitnessKind,
    classify_stability,
    cokernel_kind,
    det_quadric,
    plucker_conic,
    quadratic_root_structure,
    resolve,
)
from moriconic.chamber import Cell

MODULE = {"n": 2, "matrix": [[["1", "0", "0"], ["0", "1", "0"]], [["0", "0", "1"], ["1/2", "0", "0"]]]}


def module():
    return KroneckerModule.from_json(MODULE)


QUAD = BinaryForm(2, [1, 0, 0])
FORM = LinearForm(2, [1, 0, 0])


# One value of each record type, built twice by its factory, and its repr.
RECORDS = [
    (RootStructure, lambda: quadratic_root_structure(BinaryForm(2, [1, 0, -4])),
     "RootStructure(kind=<RootKind.TWO_DISTINCT_ROOTS: 'two_distinct_roots'>, roots=((Fraction(2, 1),"
     " Fraction(1, 1)), (Fraction(-2, 1), Fraction(1, 1))), rational=True, discriminant=Fraction(16, 1))"),
    (Witness, lambda: Witness(WitnessKind.ZERO_ROW, vector=(Fraction(1), Fraction(-1, 2))),
     "Witness(kind=<WitnessKind.ZERO_ROW: 'zero_row'>, vector=(Fraction(1, 1), Fraction(-1, 2)), form=None)"),
    (StabilityClass, lambda: classify_stability(module()),
     "StabilityClass(verdict=<Verdict.STABLE: 'stable'>, witness=None, closed_orbit=True,"
     " stabilizer_kind=<StabilizerKind.FINITE: 'finite'>)"),
    (QuadricForm, lambda: det_quadric(module()),
     "QuadricForm(n=2, gram=RatMatrix([['1/2', '0', '0'], ['0', '0', '-1/2'], ['0', '-1/2', '0']]))"),
    (CokernelKind, lambda: cokernel_kind(module()),
     "CokernelKind(kind='twisted_ideal_of_quadric', det_rank=3)"),
    (ModificationResult,
     lambda: ModificationResult(1, plucker_conic(module()), BinaryForm(1, [1, -1]), ((Fraction(1), Fraction(1)),)),
     "ModificationResult(k=1, conic=PluckerConic(n=2, nonzero={(0, 1): BinaryForm(2, ['0', '0', '-1/2']),"
     " (0, 2): BinaryForm(2, ['1', '0', '0']), (1, 2): BinaryForm(2, ['0', '1', '0'])}),"
     " base_gcd=BinaryForm(1, ['1', '-1']), base_points=((Fraction(1, 1), Fraction(1, 1)),))"),
    (DivisorCombo, lambda: DivisorCombo.make({"T": "1/2", "H11": 3}),
     "DivisorCombo(nums=(0, 0, 0, 1, 6, 0, 0), den=2, n_mode=<NMode.GT3: 'gt3'>)"),
    (Cell, lambda: Cell(1, ("H11", "H2")), "Cell(dim=1, generators=('H11', 'H2'))"),
    (ChamberVerdict, lambda: resolve(DivisorCombo.make({"T": "1/2", "H11": 3})),
     "ChamberVerdict(case_id=11, model='R', description='normalization of the incidence between the dual"
     " sheaf moduli and the quasi-map model', cell=Cell(dim=1, generators=('T', 'H11')))"),
    (ChamberComplex,
     lambda: ChamberComplex(NMode.EQ3, (("P", (Fraction(5), Fraction(14, 9))),), (("P", (13, "Gbar", "x")),), (), ()),
     "ChamberComplex(n_mode=<NMode.EQ3: 'eq3'>, coords=(('P', (Fraction(5, 1), Fraction(14, 9))),),"
     " vertices=(('P', (13, 'Gbar', 'x')),), edges=(), triangles=())"),
    (ProjSpace, lambda: ProjSpace(3), "ProjSpace(n=3)"),
    (Grassmannian, lambda: Grassmannian(2, 4), "Grassmannian(k=2, big_n=4)"),
    (KontsevichProj, lambda: KontsevichProj(2), "KontsevichProj(n=2)"),
    (MbarGr, lambda: MbarGr(3), "MbarGr(n=3)"),
    (T4, lambda: T4(3), "T4(n=3)"),
    (Sym2Of, lambda: Sym2Of(T4(3)), "Sym2Of(inner=T4(n=3))"),
    (MP24m2, MP24m2, "MP24m2()"),
]

IDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind, make, text", RECORDS, ids=IDS)
def test_fields_cannot_be_set(kind, make, text):
    record = make()
    assert type(record) is kind
    for field in (*kind._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


@pytest.mark.parametrize("kind, make, text", RECORDS, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(kind, make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    # the hash of the tuple of fields, as a frozen record's always was
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in kind._fields))


@pytest.mark.parametrize("kind, make, text", RECORDS, ids=IDS)
def test_repr_names_every_field(kind, make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", [
    lambda: T4(2),
    lambda: Grassmannian(3, 2),
    lambda: QuadricForm(1, RatMatrix([[1, 2], [0, 1]])),
    lambda: QuadricForm(2, RatMatrix([[1, 0], [0, 1]])),
    lambda: ProjSpace(-1),
    lambda: KontsevichProj(1),
    lambda: MbarGr(2),
    lambda: T4(3)._replace(n=2),
    lambda: Grassmannian(2, 4)._replace(big_n=1),
    lambda: det_quadric(module())._replace(gram=RatMatrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])),
    lambda: module().transform([[1, 0], [0, 1]], [[1, 2], [2, 4]]),
    lambda: KroneckerModule.from_ints(2, [1] * 11),
    lambda: PluckerConic(2, {(0, 1): QUAD, (0, 2): QUAD}),
    lambda: PluckerConic(2, {(0, 1): QUAD, (0, 2): QUAD, (1, 2): BinaryForm(1, [1, 0])}),
    lambda: LambdaFamily(2, [[[FORM], [FORM]]]),
    lambda: LambdaFamily(2, [[[FORM], [FORM]], [[FORM], [LinearForm(3, [0, 0, 0, 1])]]]),
    lambda: BinaryForm(-1, []),
    lambda: RatMatrix([[1, 2], [3]]),
    lambda: LinearForm(3, [1, 2]),
    lambda: quadratic_root_structure(BinaryForm(3, [1, 0, 0, 1])),
], ids=["T4(2)", "Gr(3,2)", "nonsymmetric", "wrong size", "P^-1", "MbarP(1)", "MbarGr(2)",
        "T4 replace", "Gr replace", "quadric replace", "singular B", "module length",
        "conic missing pair", "conic linear coordinate", "family not 2x2", "family mixed n",
        "form degree -1", "ragged rows", "linear form length", "cubic roots"])
def test_checked_records_reject_invalid_fields(make):
    with pytest.raises(ValueError):
        make()


def test_identifiers_of_different_spaces_are_unequal():
    same_fields = [ProjSpace(3), KontsevichProj(3), MbarGr(3), T4(3)]
    for i, a in enumerate(same_fields):
        for b in same_fields[i + 1:]:
            assert a != b and not a == b
    assert Sym2Of(T4(3)) != Sym2Of(MbarGr(3))
    assert T4(3) != (3,) and (3,) != T4(3)
    assert len({ProjSpace(3), MbarGr(3), T4(3), T4(3)}) == 3
