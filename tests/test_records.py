"""The contract of gapkit's immutable records.

Every record is built by position and by keyword with the same field order,
names and defaults; rejects bad fields with the same exceptions; refuses
assignment and deletion; compares and hashes by the tuple of its compared
fields; prints the same repr; and survives ``copy.copy``.
"""

import copy
from fractions import Fraction

import pytest

from gapkit.algnum import AlgNum, PowerBasisRep
from gapkit.autgroup import AutElement, EnhancedAut, OrbitPartition
from gapkit.binforms import BinForm, IntMat2
from gapkit.gap import (ApproxPair, GapConstants, MobiusRelation, ThueSiegelParams,
                        Verdict)
from gapkit.intpoly import IntPoly
from gapkit.isolation import RootEnclosure
from gapkit.minpair import LinearSystem, MinimalPair
from gapkit.padic import PadicAbs, PadicAlgNum
from gapkit.sweeps import SweepInstance
from gapkit.thue import Census, Solution, ThueError, ThueProblem

X2 = IntPoly((-2, 0, 1))                    # x^2 - 2
ALPHA, BETA = AlgNum(X2, 1), AlgNum(X2, 0)
REP = PowerBasisRep(ALPHA, BETA, (Fraction(0), Fraction(-1)))
CUBIC = BinForm((1, 0, 0, -2))              # x^3 - 2 y^3
F = Fraction

# (class, field names, positional arguments, arguments differing in one
# field, repr)
CASES = [
    (IntMat2, ("s", "u", "t", "v"), (1, 2, 3, 4), (1, 2, 3, 5),
     "IntMat2(s=1, u=2, t=3, v=4)"),
    (AlgNum, ("minpoly", "index"), (X2, 1), (X2, 0),
     "AlgNum(minpoly=IntPoly('x^2 - 2'), index=1)"),
    (PowerBasisRep, ("alpha", "beta", "coeffs"), (ALPHA, BETA, (F(0), F(-1))),
     (ALPHA, BETA, (F(0), F(1))),
     "PowerBasisRep(alpha=AlgNum(minpoly=IntPoly('x^2 - 2'), index=1), "
     "beta=AlgNum(minpoly=IntPoly('x^2 - 2'), index=0), "
     "coeffs=(Fraction(0, 1), Fraction(-1, 1)))"),
    (AutElement, ("matrix", "scale", "sign", "perm"), (IntMat2(0, 1, 1, 0), 1, -1, (1, 0)),
     (IntMat2(0, 1, 1, 0), 1, 1, (1, 0)),
     "AutElement(matrix=IntMat2(s=0, u=1, t=1, v=0), scale=1, sign=-1, perm=(1, 0))"),
    (EnhancedAut, ("form", "elements", "structure", "table1_class"),
     (CUBIC, (), "C_1", "C_1"), (CUBIC, (), "C_1", "C_2"),
     "EnhancedAut(form=BinForm('x^3 - 2*y^3'), elements=(), structure='C_1', "
     "table1_class='C_1')"),
    (OrbitPartition, ("blocks", "gamma_per_root"), (((0, 1), (2,)), (2, 2, 1)),
     (((0, 1), (2,)), (2, 2, 2)),
     "OrbitPartition(blocks=((0, 1), (2,)), gamma_per_root=(2, 2, 1))"),
    (ApproxPair, ("x", "y"), (3, -2), (3, 2), "ApproxPair(x=3, y=-2)"),
    (MobiusRelation, ("s", "t", "u", "v"), (1, 0, 0, -1), (1, 0, 1, -1),
     "MobiusRelation(s=1, t=0, u=0, v=-1)"),
    (GapConstants, ("metric", "c_small", "c_big", "mu", "c0", "degree", "provenance"),
     ("p-adic", F(5), F(1, 3), F(11, 4), F(1), 3, (("C3", "5"),)),
     ("p-adic", F(5), F(1, 3), F(11, 4), F(1), 3, ()),
     "GapConstants(metric='p-adic', c_small=Fraction(5, 1), c_big=Fraction(1, 3), "
     "mu=Fraction(11, 4), c0=Fraction(1, 1), degree=3, provenance=(('C3', '5'),))"),
    (ThueSiegelParams, ("d", "a", "t2", "tau2", "lam2", "delta", "A"),
     (3, F(1, 500), F(1, 2), F(1, 3), F(1, 4), F(1, 5), None),
     (3, F(1, 500), F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(7)),
     "ThueSiegelParams(d=3, a=Fraction(1, 500), t2=Fraction(1, 2), tau2=Fraction(1, 3), "
     "lam2=Fraction(1, 4), delta=Fraction(1, 5), A=None)"),
    (Verdict, ("verdict", "gap_holds", "mobius_case", "relation", "details"),
     ("GapHolds", True, False, None, {"h1": 1}), ("GapHolds", True, False, None, {}),
     "Verdict(verdict='GapHolds', gap_holds=True, mobius_case=False, relation=None, "
     "details={'h1': 1})"),
    (RootEnclosure, ("poly", "index", "disk", "bits"), (X2, 1, (181, 0, 3), 7),
     (X2, 1, (181, 0, 3), 8),
     "RootEnclosure(poly=IntPoly('x^2 - 2'), index=1, disk=(181, 0, 3), bits=7)"),
    (LinearSystem, ("alpha", "rep", "s", "rows", "scaled_rows", "scale"),
     (ALPHA, REP, 0, ((F(1, 2), F(0)),), ((1, 0),), 2),
     (ALPHA, REP, 0, ((F(1, 2), F(0)),), ((1, 0),), 4),
     "LinearSystem(alpha=AlgNum(minpoly=IntPoly('x^2 - 2'), index=1), "
     "rep=PowerBasisRep(alpha=AlgNum(minpoly=IntPoly('x^2 - 2'), index=1), "
     "beta=AlgNum(minpoly=IntPoly('x^2 - 2'), index=0), "
     "coeffs=(Fraction(0, 1), Fraction(-1, 1))), s=0, rows=((Fraction(1, 2), Fraction(0, 1)),), "
     "scaled_rows=((1, 0),), scale=2)"),
    (MinimalPair, ("alpha", "beta", "rep", "p", "q", "r", "minimality"),
     (ALPHA, BETA, REP, IntPoly((0, 1)), IntPoly((1,)), 1, "exact"),
     (ALPHA, BETA, REP, IntPoly((0, 1)), IntPoly((1,)), 1, "siegel-bounded"),
     "MinimalPair(alpha=AlgNum(minpoly=IntPoly('x^2 - 2'), index=1), "
     "beta=AlgNum(minpoly=IntPoly('x^2 - 2'), index=0), "
     "rep=PowerBasisRep(alpha=AlgNum(minpoly=IntPoly('x^2 - 2'), index=1), "
     "beta=AlgNum(minpoly=IntPoly('x^2 - 2'), index=0), "
     "coeffs=(Fraction(0, 1), Fraction(-1, 1))), p=IntPoly('x'), q=IntPoly('1'), r=1, "
     "minimality='exact')"),
    (PadicAbs, ("prime", "valuation", "exact"), (17, 2, False), (17, 2, True),
     "|.|_17 <= 17^(-2) (valuation >= 2)"),
    (PadicAlgNum, ("minpoly", "prime", "residue"), (X2, 7, 3), (X2, 7, 4),
     "PadicAlgNum(minpoly=IntPoly('x^2 - 2'), prime=7, residue=3)"),
    (SweepInstance, ("name", "metric", "alpha", "beta", "mu", "c0", "constants", "relation",
                     "pairs_alpha", "pairs_beta"),
     ("n", "archimedean", ALPHA, BETA, F(3), F(1), None, None, [ApproxPair(3, 2)], []),
     ("n", "archimedean", ALPHA, BETA, F(3), F(1), None, None, [], []),
     "SweepInstance(name='n', metric='archimedean', "
     "alpha=AlgNum(minpoly=IntPoly('x^2 - 2'), index=1), "
     "beta=AlgNum(minpoly=IntPoly('x^2 - 2'), index=0), mu=Fraction(3, 1), "
     "c0=Fraction(1, 1), constants=None, relation=None, "
     "pairs_alpha=[ApproxPair(x=3, y=2)], pairs_beta=[])"),
    (ThueProblem, ("form", "m", "bound"), (CUBIC, 1, 100), (CUBIC, 2, 100),
     "ThueProblem(form=BinForm('x^3 - 2*y^3'), m=1, bound=100)"),
    (Solution, ("x", "y", "value", "route"), (1, -1, 3, "convergent"), (1, 1, -1, "convergent"),
     "Solution(x=1, y=-1, value=3, route='convergent')"),
    (Census, ("problem", "solutions", "assignments", "orbits", "gamma", "aut_order",
              "c5_value", "mu", "theorem_bound", "large_count", "galois", "provenance"),
     (None, (), (), (), 1, 1, F(5), F(11, 4), 7, 0, ("no", "r"), {}),
     (None, (), (), (), 1, 1, F(5), F(11, 4), 7, 1, ("no", "r"), {}),
     "Census(problem=None, solutions=(), assignments=(), orbits=(), gamma=1, aut_order=1, "
     "c5_value=Fraction(5, 1), mu=Fraction(11, 4), theorem_bound=7, large_count=0, "
     "galois=('no', 'r'), provenance={})"),
]

# the fields that equality and hashing skip
UNCOMPARED = {Solution: {"route"}}
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, args, other, text", CASES, ids=IDS)
def test_record_contract(cls, names, args, other, text):
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    assert [getattr(a, n) for n in names] == list(args)
    assert [getattr(b, n) for n in names] == list(args)
    assert repr(a) == repr(b) == text
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != args and a.__eq__(args) is NotImplemented
    assert copy.copy(a) == a
    key = tuple(getattr(a, n) for n in names if n not in UNCOMPARED.get(cls, ()))
    try:
        expected = hash(key)
    except TypeError:
        # a dict or list field leaves the record unhashable, as its fields are
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    for n in names:
        with pytest.raises(AttributeError):
            setattr(a, n, args[0])
        with pytest.raises(AttributeError):
            delattr(a, n)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, n) for n in names] == list(args)


def test_record_defaults():
    g = GapConstants("archimedean", F(2), F(3), F(7, 2), F(1), 4)
    assert g.provenance == ()
    assert PadicAbs(17, 2).exact is True
    assert repr(PadicAbs(17, 2)) == "|.|_17 = 17^(-2)"
    assert Solution(1, 0, 1).route == "window"


def test_solution_route_is_not_compared():
    a, b = Solution(2, 1, 5), Solution(2, 1, 5, "convergent")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == "Solution(x=2, y=1, value=5, route='window')"


def test_padic_lift_cache_is_private_and_per_instance():
    a, b = PadicAlgNum(X2, 7, 3), PadicAlgNum(X2, 7, 3)
    assert a._lifts == {} and a._lifts is not b._lifts
    a.lift(4)
    assert a._lifts and not b._lifts
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "PadicAlgNum(minpoly=IntPoly('x^2 - 2'), prime=7, residue=3)"


def test_verdict_details_are_per_instance():
    v = [Verdict("GapHolds", True, False, None, {}) for _ in range(2)]
    assert v[0].details is not v[1].details


@pytest.mark.parametrize("build, error, message", [
    (lambda: AlgNum(IntPoly((2, 0, -1)), 0), ValueError, "positive lead"),
    (lambda: AlgNum(IntPoly((-4, 0, 2)), 0), ValueError, "primitive"),
    (lambda: AlgNum(X2, 2), ValueError, "root index out of range"),
    (lambda: AlgNum(X2, -1), ValueError, "root index out of range"),
    (lambda: ApproxPair(0, 0), ValueError, "zero pair"),
    (lambda: ApproxPair(4, -6), ValueError, "not primitive"),
    (lambda: GapConstants("archimedean", F(0), F(3), F(7, 2), F(1), 4), ValueError,
     "constants must be positive"),
    (lambda: GapConstants("p-adic", F(2), F(-3), F(7, 2), F(1), 4), ValueError,
     "constants must be positive"),
    (lambda: ThueProblem(CUBIC, 0, 100), ThueError, "m must be >= 1"),
    (lambda: ThueProblem(CUBIC, 1, 0), ThueError, "height bound must be >= 1"),
    (lambda: ThueProblem(BinForm((1, 0, -2)), 1, 100), ThueError, "degree must be >= 3"),
    (lambda: ThueProblem(BinForm((0, 1, 0, -2)), 1, 100), ThueError, "not irreducible"),
    (lambda: ThueProblem(BinForm((1, 0, 0, -8)), 1, 100), ThueError, "not irreducible"),
], ids=["AlgNum-lead", "AlgNum-content", "AlgNum-index-high", "AlgNum-index-low",
        "ApproxPair-zero", "ApproxPair-primitive", "GapConstants-small", "GapConstants-big",
        "ThueProblem-m", "ThueProblem-bound", "ThueProblem-degree", "ThueProblem-lead",
        "ThueProblem-reducible"])
def test_record_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()
