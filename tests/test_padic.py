import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from gapkit.gap import ApproxPair, _padic_distance, certify_quality_below
from gapkit.intpoly import IntPoly
from gapkit.padic import (HenselError, derive_padic,
                          good_padic_approximations, hensel_root, is_prime,
                          liouville_c7, padic_abs_linear, padic_abs_poly,
                          padic_valuation)
from gapkit.rounding import AbstainError
from gapkit.sweeps import default_instances
from tests.conftest import CUBIC, CUBIC_IMAGE, QUARTIC

# the README witness, its derived beta = alpha^2 - 2 and the 29-adic quartic
# pair of the sweep
WITNESSES = [(CUBIC, 17, 3), (CUBIC_IMAGE, 17, 7), (QUARTIC, 29, 4), (QUARTIC, 29, 14)]


@lru_cache(maxsize=None)
def linear_lifts(f: IntPoly, p: int, r0: int, top: int) -> tuple[int, ...]:
    """Oracle: the root of f mod p**k congruent to r0, at index k for every
    k <= top, by Newton one p-adic digit per step, independent of the
    doubling lift under test."""
    fp = f.derivative()
    r, mod, out = r0 % p, p, [None, r0 % p]
    for _ in range(2, top + 1):
        mod *= p
        step = (f.eval_int(r) % mod // (mod // p) * pow(fp.eval_int(r) % p, -1, p)) % p
        r = (r - step * (mod // p)) % mod
        out.append(r)
    return tuple(out)


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


@pytest.mark.parametrize("order", ["increasing", "decreasing", "random"])
@pytest.mark.parametrize("f, p, r0", WITNESSES)
def test_lift_matches_the_digit_by_digit_oracle(f, p, r0, order):
    oracle = linear_lifts(f, p, r0, 2000)
    levels = list(range(1, 2001))
    if order == "decreasing":
        levels.reverse()
    elif order == "random":
        random.Random(2000 + p + r0).shuffle(levels)
    xi = hensel_root(f, p, r0)
    assert all(xi.lift(k) == oracle[k] for k in levels)


@pytest.mark.parametrize("f, p, r0", [(CUBIC, 17, 3), (QUARTIC, 29, 14)])
def test_lift_to_20000_levels_is_a_root_on_the_witness(f, p, r0):
    # Hensel's lemma: the root mod p**k congruent to r0 mod p is unique
    r = hensel_root(f, p, r0).lift(20000)
    assert 0 <= r < p ** 20000 and r % p == r0
    assert f.eval_int(r) % p ** 20000 == 0


def _valuation(f, p, r0, x, y, top=2000):
    """Exact v_p(y alpha - x) from the oracle lift."""
    val = (y * linear_lifts(f, p, r0, top)[top] - x) % p ** top
    assert val, "valuation not below the oracle's depth"
    return padic_valuation(val, p)


def test_quality_at_the_boundary_of_its_depth():
    # pairs (x, t^4) of height H = t^4 with v_17(t^4 alpha - x) = 1300 and
    # 1301, and C0 = t^11 / 17^1300, so that 17^1300 C0 = H^(11/4) exactly:
    # the hypothesis |y alpha - x|_p < C0 / H^mu fails at valuation 1300 and
    # holds one level deeper (both past the depths gapkit once tried)
    v, mu = 1300, Fraction(11, 4)
    oracle = linear_lifts(CUBIC, 17, 3, 2000)
    t = 17 ** 326
    while True:
        t += 1
        y = t ** 4
        shallow, deep = y * oracle[v] % 17 ** v, y * oracle[v + 1] % 17 ** (v + 1)
        if (t % 17 and shallow != deep and _valuation(CUBIC, 17, 3, deep, y) == v + 1
                and gcd(shallow, y) == gcd(deep, y) == 1):
            break
    assert _valuation(CUBIC, 17, 3, shallow, y) == v and y > deep
    c0 = Fraction(t ** 11, 17 ** v)
    xi = hensel_root(CUBIC, 17, 3)
    assert certify_quality_below(xi, ApproxPair(shallow, y), mu, c0) is False
    assert certify_quality_below(xi, ApproxPair(deep, y), mu, c0) is True


def test_quality_of_a_pair_1300_levels_deep_decides():
    xi = hensel_root(CUBIC, 17, 3)
    pair = ApproxPair(xi.lift(1300), 1)
    assert certify_quality_below(xi, pair, Fraction(11, 4), Fraction(1)) is False


def test_sweep_quality_verdicts_match_the_oracle_valuation():
    # |y alpha - x|_p = p^-v < C0 / H^mu, mu = a/b, exactly when
    # (p^v num C0)^b > H^a (den C0)^b
    checked = 0
    for inst in default_instances():
        if inst.metric != "p-adic":
            continue
        a, b = inst.mu.numerator, inst.mu.denominator
        num, den = inst.c0.numerator, inst.c0.denominator
        for xi, pairs in ((inst.alpha, inst.pairs_alpha), (inst.beta, inst.pairs_beta)):
            for pair in pairs:
                v = _valuation(xi.minpoly, xi.prime, xi.residue, pair.x, pair.y)
                want = (xi.prime ** v * num) ** b > pair.height ** a * den ** b
                assert certify_quality_below(xi, pair, inst.mu, inst.c0) is want, (inst.name, pair)
                checked += 1
    assert checked >= 60


def test_padic_distance_reads_its_full_depth():
    # beta = alpha + 17^199, the root of f(x - 17^199) with residue 3: the
    # two agree to 199 levels, which a read at level 200 tells apart
    c = 17 ** 199
    shifted = IntPoly((-c ** 3 + 3 * c - 1, 3 * c * c - 3, -3 * c, 1))
    alpha, beta = hensel_root(CUBIC, 17, 3), hensel_root(shifted, 17, 3)
    assert (beta.lift(300) - alpha.lift(300) - c) % 17 ** 300 == 0
    assert _padic_distance(alpha, beta) == Fraction(1, c)
    near = IntPoly((-(17 * c) ** 3 + 3 * 17 * c - 1, 3 * (17 * c) ** 2 - 3, -3 * 17 * c, 1))
    with pytest.raises(AbstainError, match="depth 200"):
        _padic_distance(alpha, hensel_root(near, 17, 3))


@pytest.mark.parametrize("mu, c0", [(Fraction(11, 4), 0), (Fraction(11, 4), -1), (0, 1)])
def test_quality_refuses_a_nonpositive_mu_or_c0(mu, c0):
    # no least level p^k C0 > H^mu exists to read the lift at
    with pytest.raises(ValueError, match="positive"):
        certify_quality_below(hensel_root(CUBIC, 17, 3), ApproxPair(3, 1), mu, c0)
