"""The constants read off root enclosures against mpmath at 200 digits.

Each constant is a directed bound: C6 and the enclosure branch of C13 are
lower bounds, C9 and C11 upper bounds.  The value gapkit reports must lie on
its safe side of the mpmath value of the closed expression, and within 1e-9
of it relatively, so an enclosure that is rounded the wrong way or far too
wide fails here.
"""

from fractions import Fraction

import mpmath
import pytest

from gapkit.algnum import AlgNum, PowerBasisRep, c9, liouville_c6
from gapkit.autgroup import d12_family
from gapkit.gap import c11
from gapkit.intpoly import IntPoly
from gapkit.minpair import MinimalPair, c13, c13_formula
from tests.conftest import CBRT2, CUBIC, QUARTIC

DPS = 200
RELATIVE = mpmath.mpf("1e-9")
MU, C0 = Fraction(11, 4), Fraction(1)
P1, Q1 = (2, 0, -1), (1,)        # the classical first pair: -x^2 + 2, 1

NUMBERS = {
    "alpha15": (QUARTIC, Fraction(1827, 1000)),
    "alpha_cubic": (CUBIC, Fraction(1879, 1000)),
    "cbrt2": (CBRT2, Fraction(126, 100)),
    "d12_root0": (d12_family(3, 1).dehomogenize(), None),
}


def _number(name: str) -> AlgNum:
    poly, near = NUMBERS[name]
    return AlgNum.make(poly, 0) if near is None else AlgNum.near(poly, near)


def _roots(alpha: AlgNum):
    """Every root of alpha's minimal polynomial at DPS digits, and the one
    that alpha selects."""
    roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(alpha.minpoly.coeffs)],
                             maxsteps=400, extraprec=4 * DPS)
    z = alpha.enclosure().approx()
    return roots, min(roots, key=lambda r: abs(r - mpmath.mpc(z.real, z.imag)))


def _q(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _check(value: Fraction, exact, side: str):
    v = _q(value)
    assert v <= exact if side == "lower" else v >= exact, (float(v), float(exact))
    assert abs(v - exact) <= RELATIVE * abs(exact), float(abs(v - exact) / exact)


@pytest.mark.parametrize("name", sorted(NUMBERS))
def test_liouville_c6_against_mpmath(name):
    alpha = _number(name)
    with mpmath.workdps(DPS):
        roots, z = _roots(alpha)
        prod = mpmath.fprod(1 + abs(r) for r in roots) / (1 + abs(z))
        _check(liouville_c6(alpha), 1 / (alpha.lead * prod), "lower")


@pytest.mark.parametrize("name", sorted(NUMBERS))
def test_c9_against_mpmath(name):
    # c9(alpha, alpha): the house of beta is alpha's own
    alpha = _number(name)
    d = alpha.degree
    with mpmath.workdps(DPS):
        roots, _ = _roots(alpha)
        best = max(mpmath.fprod((1 + abs(roots[i])) / abs(roots[i] - roots[j])
                                for i in range(d) if i != j) for j in range(d))
        exact = d * max(abs(r) for r in roots) * best
        _check(c9(alpha, alpha), exact, "upper")


@pytest.mark.parametrize("name", sorted(NUMBERS))
def test_c11_against_mpmath(name):
    alpha = _number(name)
    conjugates = [AlgNum(alpha.minpoly, i) for i in range(alpha.degree)]
    with mpmath.workdps(DPS):
        roots, _ = _roots(alpha)
        least = min(abs(a - b) for k, a in enumerate(roots) for b in roots[k + 1:])
        exact = (2 * _q(C0) / least) ** (1 / _q(MU))
        _check(c11(conjugates, MU, C0), exact, "upper")


# C13 has an enclosure branch only for a real alpha; D12's roots are nonreal
@pytest.mark.parametrize("name", ["alpha15", "alpha_cubic", "cbrt2"])
def test_c13_enclosure_branch_against_mpmath(name):
    # with the classical pair W = -2x, so |W(alpha)| = 2 |alpha|, and the
    # enclosure branch is far above the closed norm-form bound
    alpha = _number(name)
    rep = PowerBasisRep(alpha, alpha, (Fraction(0), Fraction(1))
                        + (Fraction(0),) * (alpha.degree - 2))
    pair = MinimalPair(alpha, alpha, rep, IntPoly(P1), IntPoly(Q1), 2, "exact")
    value = c13(alpha, pair)
    assert value > c13_formula(alpha, Fraction(pair.height_bound),
                               alpha.mahler_interval().hi)
    with mpmath.workdps(DPS):
        _, z = _roots(alpha)
        _check(value, 2 * abs(z), "lower")
