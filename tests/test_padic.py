from fractions import Fraction
from math import gcd

import pytest

from gapkit.intpoly import IntPoly
from gapkit.padic import (HenselError, derive_padic,
                          good_padic_approximations, hensel_root, is_prime,
                          liouville_c7, padic_abs_linear, padic_abs_poly,
                          padic_valuation)
from gapkit.rounding import AbstainError
from tests.conftest import CUBIC, CUBIC_IMAGE


def brute_roots_mod(f: IntPoly, m: int):
    return [r for r in range(m) if f.eval_int(r) % m == 0]


def test_hensel_witnesses_via_exhaustion():
    # oracle: exhaustive root search mod 17 and mod 289
    assert brute_roots_mod(CUBIC, 17) == [3, 4, 10]
    lifts = brute_roots_mod(CUBIC, 289)
    xi = hensel_root(CUBIC, 17, 3)
    assert xi.lift(2) == 207 and 207 in lifts
    xi2 = hensel_root(CUBIC, 17, 4)
    assert xi2.lift(2) in lifts and xi2.lift(2) % 17 == 4


def test_hensel_condition_rejected():
    with pytest.raises(HenselError):
        hensel_root(IntPoly((-2, 0, 1)), 2, 0)   # f'(0) = 0 mod 2
    with pytest.raises(HenselError):
        hensel_root(CUBIC, 17, 5)                 # not a root mod 17


def test_composite_modulus_rejected():
    # 18 is a root of x^3 - 2 mod 55 with 3 * 18^2 a unit mod 55, so only
    # the primality check stands in the way
    f = IntPoly((-2, 0, 0, 1))
    assert f.eval_int(18) % 55 == 0 and gcd(3 * 18 ** 2, 55) == 1
    with pytest.raises(HenselError, match="not prime"):
        hensel_root(f, 55, 18)
    with pytest.raises(HenselError):
        hensel_root(f, 1, 0)


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-3, 5000))
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(10 ** 24 + 7)


def test_is_prime_abstains_above_the_proven_range():
    # the least strong pseudoprime to the first 13 prime bases,
    # 1287836182261 * 2575672364521: only abstaining keeps it out
    with pytest.raises(AbstainError):
        is_prime(3317044064679887385961981)
    with pytest.raises(AbstainError):
        is_prime(2 ** 89 - 1)                          # a Mersenne prime
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))  # a witness still proves it


def test_lift_compatibility():
    xi = hensel_root(CUBIC, 17, 3)
    for k in range(1, 9):
        assert xi.lift(k + 1) % 17 ** k == xi.lift(k)
        assert CUBIC.eval_int(xi.lift(k)) % 17 ** k == 0


def test_padic_abs_examples():
    xi = hensel_root(CUBIC, 17, 3)
    ab = padic_abs_linear(xi, 3, 1, 2)
    assert ab.exact and ab.value == Fraction(1, 17)   # 207 - 3 = 12 * 17
    assert padic_abs_linear(xi, 1, 0, 2).value == 1   # |-1|_p
    assert padic_abs_linear(xi, 0, 1, 2).value == 1   # |alpha|_p, unit residue
    deep = padic_abs_linear(xi, xi.lift(5), 1, 3)     # vanishes mod 17^3
    assert not deep.exact and deep.valuation == 3


def test_liouville_c7_examples():
    xi = hensel_root(CUBIC, 17, 3)
    assert liouville_c7(xi) == Fraction(1, 12)       # 1/(1 * 4 * 3)
    monic_h1 = hensel_root(IntPoly((-1, -1, 0, 1)), 5, 2)  # x^3 - x - 1 mod 5
    assert liouville_c7(monic_h1) == Fraction(1, 4)  # 1/(d+1) when H = 1


def test_liouville_c7_brute_force():
    xi = hensel_root(CUBIC, 17, 3)
    c7 = liouville_c7(xi)
    worst = None
    for y in range(0, 51):
        for x in range(-50, 51):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            ab = padic_abs_linear(xi, x, y, 30)
            assert ab.exact
            q = ab.value * Fraction(max(abs(x), abs(y))) ** 3
            worst = q if worst is None else min(worst, q)
    assert worst >= c7


def test_derive_padic_beta():
    xi = hensel_root(CUBIC, 17, 3)
    beta = derive_padic(xi, (Fraction(-2), Fraction(0), Fraction(1)), CUBIC_IMAGE)
    assert beta.residue == 7                          # (3^2 - 2) mod 17
    # consistency at depth: beta lift == alpha lift^2 - 2 mod p^k
    for k in (2, 4, 6):
        assert beta.lift(k) == (xi.lift(k) ** 2 - 2) % 17 ** k


def test_padic_abs_poly():
    xi = hensel_root(CUBIC, 17, 3)
    w = IntPoly((0, 2))  # 2x at the witness: unit residue
    assert padic_abs_poly(xi, w, 4).value == 1


def test_good_approximations_quality():
    xi = hensel_root(CUBIC, 17, 3)
    approx = good_padic_approximations(xi, 12)
    assert len(approx) == 12
    assert len(set(approx)) == 12
    for x, y in approx:
        assert gcd(abs(x), abs(y)) == 1
        ab = padic_abs_linear(xi, x, y, 60)
        h = max(abs(x), abs(y))
        # convergent-grade quality: |y alpha - x|_p <= ~ 1/H^2 up to slack
        assert ab.value * h * h <= 17 ** 2


def test_padic_valuation():
    assert padic_valuation(17 ** 3 * 5, 17) == 3
    with pytest.raises(ValueError):
        padic_valuation(0, 17)
