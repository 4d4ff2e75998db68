from fractions import Fraction
from math import gcd

import mpmath
import pytest
import sympy

from gapkit.algnum import (AlgNum, NotInFieldError, c8, c9, denominator_scalar,
                           liouville_c6, power_rep, power_table,
                           theta_upper_bound)
from gapkit.intpoly import IntPoly
from tests.conftest import QUARTIC


def max_abs(rep):
    return max(abs(c) for c in rep.coeffs)

X = sympy.Symbol("x")


def sympy_reduction_oracle(f: IntPoly, r: int):
    """Independent reduction of x^r mod f over Q via sympy."""
    fs = sympy.Poly(list(reversed(f.coeffs)), X, domain="QQ")
    rem = sympy.Poly([1] + [0] * r, X, domain="QQ").rem(fs)
    coeffs = [Fraction(0)] * f.degree
    for k, c in enumerate(reversed(rem.all_coeffs())):
        coeffs[k] = Fraction(c.p, c.q)
    return tuple(coeffs)


def test_power_table_examples(cbrt2):
    assert power_table(cbrt2, 3) == (2, 0, 0)
    assert power_table(cbrt2, 4) == (0, 2, 0)
    for r in range(3):
        unit = tuple(Fraction(int(i == r)) for i in range(3))
        assert power_table(cbrt2, r) == unit


def test_power_table_vs_sympy(alpha15, alpha_cubic):
    for alg in (alpha15, alpha_cubic):
        for r in range(0, 3 * alg.degree + 1):
            assert power_table(alg, r) == sympy_reduction_oracle(alg.minpoly, r)


def test_power_table_integrality_and_size():
    # Lemma-style bounds for a non-monic minimal polynomial
    f = IntPoly((-3, -3, 0, 2))  # 2x^3 - 3x - 3: no rational root, irreducible
    alg = AlgNum.make(f, 0)
    d, ca = alg.degree, alg.lead
    bound = c8(alg)
    for r in range(0, 3 * d + 1):
        row = power_table(alg, r)
        e = max(0, r - d + 1)
        for a in row:
            scaled = a * ca ** e
            assert scaled.denominator == 1          # integrality
            assert abs(a) <= bound ** e or e == 0 and abs(a) <= 1


def test_c8_examples(cbrt2, alpha_cubic, alpha15):
    assert c8(cbrt2) == 3
    assert c8(alpha_cubic) == 4      # alpha^3 = 3 alpha + 1
    assert c8(alpha15) == 5          # 1 + max|(-1, -4, 4, 1)|


def test_power_rep_paper_example(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    assert rep.coeffs == (-2, 0, 1, 0)   # beta = alpha^2 - 2
    # double-angle oracle at 50 digits
    mpmath.mp.dps = 60
    a = 2 * mpmath.cos(2 * mpmath.pi / 15)
    b = 2 * mpmath.cos(4 * mpmath.pi / 15)
    assert abs((a ** 2 - 2) - b) < mpmath.mpf(10) ** -50
    assert denominator_scalar(rep) == 1


def test_power_rep_identity(alpha15):
    rep = power_rep(alpha15, alpha15)
    assert rep.coeffs == (0, 1, 0, 0)


def test_power_rep_not_in_field(cbrt2):
    sqrt2 = AlgNum.near(IntPoly((-2, 0, 1)), Fraction(141, 100))
    with pytest.raises(NotInFieldError):
        power_rep(cbrt2, sqrt2)


def test_power_rep_rational_coeffs(cbrt2):
    # beta = (1 + alpha)/2: minimal polynomial of (1+2^(1/3))/2 is 8x^3-12x^2+6x-3
    beta = AlgNum.near(IntPoly((-3, 6, -12, 8)), Fraction(113, 100))
    rep = power_rep(cbrt2, beta)
    assert rep.coeffs == (Fraction(1, 2), Fraction(1, 2), 0)
    assert denominator_scalar(rep) == 2
    assert max_abs(rep) == Fraction(1, 2)


def test_c9_dominates_representation(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    bound = c9(alpha15, beta15)
    assert bound >= max_abs(rep) >= 2


def test_c9_dominates_on_conjugate_pairs():
    # all ordered pairs of distinct conjugates in the Galois quartic field
    algs = [AlgNum.make(QUARTIC, i) for i in range(4)]
    count = 0
    for a in algs:
        for b in algs:
            if a.index == b.index or not (a.is_real and b.is_real):
                continue
            rep = power_rep(a, b)
            assert c9(a, b) >= max_abs(rep)
            count += 1
    assert count == 12


def test_theta_upper_bound(cbrt2):
    assert theta_upper_bound(cbrt2) == 10          # isqrt(108)
    # monic with squarefree discriminant: true index is 1, bound still >= 1
    f = IntPoly((-1, -1, 0, 1))                    # x^3 - x - 1, disc -23
    assert theta_upper_bound(AlgNum.make(f, 0)) >= 1
    golden_like = AlgNum.make(IntPoly((-1, -3, 0, 1)), 0)
    assert theta_upper_bound(golden_like) >= 1


def test_liouville_c6_examples(cbrt2):
    v = liouville_c6(cbrt2)
    # (1 + 2^(1/3))^(-2) ~ 0.1958, rounded down
    assert Fraction(19, 100) < v < Fraction(196, 1000)
    # all conjugates inside the unit disk gives C6 >= (c 2^(d-1))^(-1)
    f = IntPoly((1, 1, 1, 1, 1))  # 5th cyclotomic: roots on unit circle
    alg = AlgNum.make(f, 0)
    assert liouville_c6(alg) >= Fraction(1, 2 ** 3) * Fraction(999, 1000)


def test_liouville_c6_brute_force(alpha_cubic):
    # |alpha - x/y| * H^d >= C6 over all reduced x/y with H <= 200
    c6 = liouville_c6(alpha_cubic)
    d = alpha_cubic.degree
    enc = alpha_cubic.enclosure(Fraction(1, 10 ** 40)).interval
    worst = None
    for y in range(1, 201):
        for x in range(-200, 201):
            if gcd(abs(x), abs(y)) != 1:
                continue
            h = max(abs(x), abs(y))
            dist_lo = max(enc.lo - Fraction(x, y), Fraction(x, y) - enc.hi)
            assert dist_lo > 0, "enclosure width must separate nearby rationals"
            q = dist_lo * h ** d
            if worst is None or q < worst:
                worst = q
    assert worst >= c6


def test_liouville_c6_on_convergents(cbrt2):
    from gapkit.thue import convergents

    c6 = liouville_c6(cbrt2)
    enc = cbrt2.enclosure(Fraction(1, 10 ** 60)).interval
    for pr in convergents(cbrt2, 12):
        dist_lo = max(enc.lo - pr.value(), pr.value() - enc.hi)
        assert dist_lo * Fraction(pr.height) ** 3 >= c6
