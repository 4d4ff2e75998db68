"""C9, C6 and the Mahler measure, each one integer product read off the root
disks, against the RatInterval chains they replaced: the same rationals,
exactly (``Fraction`` is canonical, so equal values are equal objects).

The references below keep the chain bodies and their own |z| and |z - w|
intervals (``isqrt`` of the squared center, rounded down and up, less and
plus the radius), so they share no helper with the code under test.  They
read the disks where the constants do: the rungs of the root systems'
refinement ladders, from TABLE_WIDTH on rungs whose scales double."""

import copy
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gapkit.algnum import AlgNum, c9, liouville_c6, normalize_minimal_poly
from gapkit.autgroup import d12_family
from gapkit.binforms import BinForm
from gapkit.intpoly import IntPoly, is_squarefree
from gapkit.isolation import (TABLE_WIDTH, _abs_bounds, _rescaled, _RootSystem,
                              isolate_roots, root_system)
from gapkit.rounding import RatInterval, tidy_down, tidy_up


def _abs_interval(disk, bits) -> RatInterval:
    re, im, rad = disk
    n = re * re + im * im
    s = isqrt(n)
    return RatInterval(Fraction(max(0, s - rad), 1 << bits),
                       Fraction(s + (s * s != n) + rad, 1 << bits))


def _distance_interval(a, b, bits: int) -> RatInterval:
    (ar, ai, ra), (br, bi, rb) = a, b
    return _abs_interval((ar - br, ai - bi, ra + rb), bits)


def reference_c9(alpha: AlgNum, beta: AlgNum) -> Fraction:
    d = alpha.degree
    first = root_system(beta.minpoly).scaled(TABLE_WIDTH)
    house = max(_abs_interval(z, first.bits).hi for z in first.alpha)
    for table in root_system(alpha.minpoly).ladder():
        try:
            best = RatInterval(0)
            for j in range(d):
                prod = RatInterval(1)
                for i in range(d):
                    if i == j:
                        continue
                    num = _abs_interval(table.alpha[i], table.bits) + 1
                    den = _distance_interval(table.alpha[i], table.alpha[j], table.bits)
                    prod = prod * (num / den)
                if prod.hi > best.hi:
                    best = prod
            return tidy_up(d * house * best.hi)
        except ZeroDivisionError:
            pass


def reference_c6(alpha: AlgNum) -> Fraction:
    table = root_system(alpha.minpoly).scaled(TABLE_WIDTH)
    denom = RatInterval(Fraction(alpha.lead))
    for i, z in enumerate(table.alpha):
        if i == alpha.index:
            continue
        denom = denom * (_abs_interval(z, table.bits) + 1)
    return tidy_down(Fraction(1) / denom.hi)


def reference_mahler(p: IntPoly) -> RatInterval:
    """lead * prod max(1, |alpha_i|) over the first rung's disks."""
    table = root_system(p).scaled(TABLE_WIDTH)
    out = RatInterval(Fraction(abs(p.lead)))
    for z in table.alpha:
        a = _abs_interval(z, table.bits)
        out = out * RatInterval(max(a.lo, 1), max(a.hi, 1))
    return out


def _assert_products_match(p: IntPoly) -> None:
    """C6 at every root, C9 and M(p) on the rungs the census reads."""
    p = normalize_minimal_poly(p)
    for i in range(p.degree):
        alpha = AlgNum(p, i)
        assert liouville_c6(alpha) == reference_c6(alpha)
    alpha = AlgNum(p, 0)
    assert c9(alpha, alpha) == reference_c9(alpha, alpha)
    got, want = alpha.mahler_interval(), reference_mahler(p)
    assert (got.lo, got.hi) == (want.lo, want.hi)


# the thue-tall and thue-wide forms that perfbench draws for seeds 1-3
SEEDED_FORMS = [
    [1, 0, -3, -1], [3, -4, 1, -2], [3, 2, -8, 2, 3], [1, -3, -1, -1, 2], [1, 1, -2, -1],
    [1, 0, -1, 3], [1, -3, -6, -1], [2, 0, 1, 4], [1, -1, -4, -1], [1, -2, 4, 5],
    [1, -2, -3, -2, 1], [2, -3, -3, -3, 1], [1, -2, -5, -1], [1, -2, 0, -3], [1, 0, -2, -5],
    [1, -5, -8, -1], [1, -2, -1, -4], [2, -3, -6, -3, 2], [3, -2, 2, -4, 4], [1, 5, -1, 5],
    [1, -3, 3, 2],
]
# the README's forms, as x^d first
README_FORMS = [[1, -1, -4, 4, 1], [1, 0, -3, -1], [1, 0, -3, 1], [1, 0, 0, -2]]


def test_d12_products_match_the_interval_chains():
    _assert_products_match(d12_family(3, 1).dehomogenize())


@pytest.mark.parametrize("coeffs", SEEDED_FORMS + README_FORMS)
def test_seeded_and_readme_products_match_the_interval_chains(coeffs):
    # the form's roots and, through the reversed form, their reciprocals
    _assert_products_match(BinForm(coeffs).dehomogenize())
    _assert_products_match(BinForm(coeffs[::-1]).dehomogenize())


# x^3 - 2 (10^7 x - 1)^3: a real root and a nonreal pair, within 10^-14 of
# each other
CLOSE_CUBIC = [2, -6 * 10 ** 7, 6 * 10 ** 14, 1 - 2 * 10 ** 21]


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=12),
       st.integers(min_value=1, max_value=9))
@example(CLOSE_CUBIC[:-1], CLOSE_CUBIC[-1])
@settings(max_examples=25, deadline=None)
def test_drawn_products_match_the_interval_chains(low, lead):
    # degree 3 to 12, with nonreal roots; one root is read 2^40 times finer
    # than its base disk, so that its table disk is rounded from an
    # enclosure at another scale than the rest
    p = IntPoly(low + [lead])
    assume(is_squarefree(p))
    base = root_system(p).base
    assume(not all(e.is_real for e in base))
    k = next((e.index for e in base if e.disk[2]), None)
    assume(k is not None)
    finer = min(base[k].width(), 1) / 2 ** 40
    refined = _RootSystem.refined

    def root_k_finer(self, index, width):
        return refined(self, index, min(width, finer) if index == k else width)

    with mock.patch.object(_RootSystem, "refined", root_k_finer):
        assert len({e.bits for e in isolate_roots(normalize_minimal_poly(p))}) > 1
        _assert_products_match(p)


def test_c9_refines_disks_that_meet(ladder_widths):
    # CLOSE_CUBIC's roots, read on the first rung from disks coarsened
    # outward to units of 2**-40 > 10**-14, where they meet: both C9s take
    # the ladder's second rung and agree there
    alpha = AlgNum(normalize_minimal_poly(IntPoly(CLOSE_CUBIC)), 0)
    rungs = ladder_widths(alpha.minpoly)
    scaled = _RootSystem.scaled
    widths = []

    def coarse_first(self, width):
        widths.append(width)
        table = scaled(self, width)
        if width < TABLE_WIDTH:
            return table
        coarse = copy.copy(table)
        coarse.alpha = [_rescaled(_rescaled(z, table.bits, 40), 40, table.bits)
                        for z in table.alpha]
        return coarse

    with mock.patch.object(_RootSystem, "scaled", coarse_first):
        got = c9(alpha, alpha)
        assert sorted(set(widths), reverse=True) == rungs[:2]
        assert got == reference_c9(alpha, alpha)


@given(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       st.integers(min_value=0, max_value=2 ** 72))
@example(3, 4, 2)        # |c|**2 = 25, a perfect square
@example(7, 1, 3)        # |c|**2 = 50, just past 49
@example(8, 4, 3)        # |c|**2 = 80, just short of 81
@example(1, 1, 5)        # a radius larger than |c|
@settings(max_examples=200, deadline=None)
def test_abs_bounds_round_the_center_modulus_outward(re, im, rad):
    # lo = floor(|c|) - rad, clamped at 0, and hi = ceil(|c|) + rad, by
    # integer comparisons of squares
    lo, hi = _abs_bounds((re, im, rad))
    n = re * re + im * im
    if lo:
        assert (lo + rad) ** 2 <= n < (lo + rad + 1) ** 2
    else:
        assert n < (rad + 1) ** 2
    up = hi - rad
    assert n <= up ** 2 and (n == up == 0 or (up - 1) ** 2 < n)
