"""C9, C6 and the Mahler measure, each one integer product read off the root
disks, against the RatInterval chains they replaced: the same rationals,
exactly (``Fraction`` is canonical, so equal values are equal objects).

The references below keep the chain bodies and their own |z| and |z - w|
intervals (``isqrt`` of the squared center, rounded down and up, less and
plus the radius), so they share no helper with the code under test."""

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
from gapkit.isolation import (PrecisionError, RootEnclosure, _abs_bounds, _mahler_rec,
                              _rescaled, _RootSystem, house, isolate_roots, root_system)
from gapkit.rounding import RatInterval, tidy_down, tidy_up


def _abs_interval(disk, bits) -> RatInterval:
    re, im, rad = disk
    n = re * re + im * im
    s = isqrt(n)
    return RatInterval(Fraction(max(0, s - rad), 1 << bits),
                       Fraction(s + (s * s != n) + rad, 1 << bits))


def _distance_interval(a: RootEnclosure, b: RootEnclosure) -> RatInterval:
    bits = max(a.bits, b.bits)
    (ar, ai, ra), (br, bi, rb) = _rescaled(a.disk, a.bits, bits), _rescaled(b.disk, b.bits, bits)
    return _abs_interval((ar - br, ai - bi, ra + rb), bits)


def reference_c9(alpha: AlgNum, beta: AlgNum) -> Fraction:
    d = alpha.degree
    width = Fraction(1, 10 ** 12)
    for _ in range(8):
        encl = alpha.conjugates(width)
        try:
            best = RatInterval(0)
            for j in range(d):
                prod = RatInterval(1)
                for i in range(d):
                    if i == j:
                        continue
                    num = _abs_interval(encl[i].disk, encl[i].bits) + 1
                    den = _distance_interval(encl[i], encl[j])
                    prod = prod * (num / den)
                if prod.hi > best.hi:
                    best = prod
            hb = house(beta.minpoly, width)
            return tidy_up(d * hb.hi * best.hi)
        except ZeroDivisionError:
            width /= 10 ** 6
    raise PrecisionError("conjugate separation undecided at budget")


def reference_c6(alpha: AlgNum) -> Fraction:
    encl = alpha.conjugates(Fraction(1, 10 ** 12))
    denom = RatInterval(Fraction(alpha.lead))
    for e in encl:
        if e.index == alpha.index:
            continue
        denom = denom * (_abs_interval(e.disk, e.bits) + 1)
    return tidy_down(Fraction(1) / denom.hi)


def reference_mahler(p: IntPoly, width: Fraction) -> RatInterval:
    """The squarefree branch of ``_mahler_rec``."""
    out = RatInterval(Fraction(abs(p.lead)))
    for e in isolate_roots(p, width):
        a = _abs_interval(e.disk, e.bits)
        out = out * RatInterval(max(a.lo, 1), max(a.hi, 1))
    return out


def _assert_products_match(p: IntPoly) -> None:
    """C6 at every root, C9 and M(p) at the widths the census asks for."""
    p = normalize_minimal_poly(p)
    for i in range(p.degree):
        alpha = AlgNum(p, i)
        assert liouville_c6(alpha) == reference_c6(alpha)
    alpha = AlgNum(p, 0)
    assert c9(alpha, alpha) == reference_c9(alpha, alpha)
    width = Fraction(1, 10 ** 20) / (2 * (p.degree + 1))
    got, want = _mahler_rec(p, width), reference_mahler(p, width)
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
    # degree 3 to 12, with nonreal roots; the roots share one scale, so one
    # root is read 2^40 times finer than its base disk to put the disks at
    # more than one scale
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


def test_c9_refines_disks_that_meet():
    # CLOSE_CUBIC's roots, read first from disks coarsened outward to units
    # of 2**-40 > 10**-12, where they meet: both C9s refine by 10**-6 and
    # read the disks isolation gives at 10**-18
    alpha = AlgNum(normalize_minimal_poly(IntPoly(CLOSE_CUBIC)), 0)
    conjugates = AlgNum.conjugates
    widths = []

    def coarse_first(self, width):
        widths.append(width)
        encl = conjugates(self, width)
        if width < Fraction(1, 10 ** 12):
            return encl
        return [RootEnclosure(e.poly, e.index, _rescaled(e.disk, e.bits, 40), 40)
                for e in encl]

    with mock.patch.object(AlgNum, "conjugates", coarse_first):
        got = c9(alpha, alpha)
        assert widths == [Fraction(1, 10 ** 12), Fraction(1, 10 ** 18)]
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
