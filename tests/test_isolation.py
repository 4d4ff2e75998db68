import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from mpmath.libmp import to_rational
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gapkit import isolation
from gapkit.intpoly import IntPoly, is_squarefree, poly_gcd_q
from gapkit.isolation import (IsolationError, disk_disjoint, disk_distance, disk_div,
                              disk_elementary, disk_holds_integer,
                              disk_mul, disk_sub, house,
                              isolate_roots, mahler_measure,
                              root_separation_lower_bound)
from gapkit.rounding import AbstainError, root_down, root_up


def bisection_oracle(p: IntPoly, lo: Fraction, hi: Fraction, steps=80):
    """Plain sign-bisection, independent of the root disks."""
    flo = p.eval_at(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = p.eval_at(mid)
        if fm == 0:
            return mid
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def test_sqrt2_isolation():
    p = IntPoly((-2, 0, 1))
    encl = isolate_roots(p, Fraction(1, 10 ** 20))
    assert len(encl) == 2 and all(e.is_real for e in encl)
    oracle = bisection_oracle(p, Fraction(1), Fraction(2))
    assert oracle in encl[1].interval
    assert -oracle in encl[0].interval


def test_cubic_three_real_roots():
    p = IntPoly((-1, -3, 0, 1))
    encl = isolate_roots(p, Fraction(1, 2 ** 72))
    assert [e.is_real for e in encl] == [True, True, True]
    # sign-bisection oracle values, accurate to ~2^-80
    targets = [bisection_oracle(p, Fraction(-2), Fraction(-1)),
               bisection_oracle(p, Fraction(-1), Fraction(0)),
               bisection_oracle(p, Fraction(1), Fraction(2))]
    for e, t in zip(encl, targets):
        assert abs(t - e.interval.mid()) < Fraction(1, 2 ** 70)
    approx = [round(float(e.interval.mid()), 3) for e in encl]
    assert approx == [-1.532, -0.347, 1.879]


def test_complex_pair():
    encl = isolate_roots(IntPoly((1, 0, 1)))
    assert all(not e.is_real for e in encl)
    assert encl[0].disk[1] < 0 < encl[1].disk[1]
    one = encl[1].abs_interval()
    assert one.lo <= 1 <= one.hi


def test_non_squarefree_reported():
    p = IntPoly((-2, 0, 1))
    with pytest.raises(IsolationError) as info:
        isolate_roots(p * p)
    assert not isinstance(info.value, AbstainError)   # bad input, not a budget


def test_refinement_never_loses_root():
    p = IntPoly((-2, 0, 0, 1))
    coarse = isolate_roots(p, Fraction(1, 100))
    fine = [e.refine(Fraction(1, 10 ** 40)) for e in coarse]
    for c, f in zip(coarse, fine):
        assert f.width() <= Fraction(1, 10 ** 40)
        if c.is_real:
            assert c.interval.intersects(f.interval)
        else:
            shift = f.bits - c.bits
            assert not disk_disjoint(f.disk, tuple(v << shift for v in c.disk))


def test_mahler_measure_examples():
    m = mahler_measure(IntPoly((-2, 0, 1)), Fraction(1, 10 ** 20))
    assert m.lo <= 2 <= m.hi and m.width <= Fraction(1, 10 ** 20)
    m3 = mahler_measure(IntPoly((-2, 0, 0, 1)))
    assert m3.lo <= 2 <= m3.hi
    m5 = mahler_measure(IntPoly((5,)))
    assert m5.lo == m5.hi == 5
    with pytest.raises(ValueError):
        mahler_measure(IntPoly(()))


def test_mahler_contains_refined_product_and_landau():
    rng = random.Random(31)
    for _ in range(25):
        p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
        if p.is_zero or p.degree < 1:
            continue
        m = mahler_measure(p, Fraction(1, 10 ** 10))
        assert m.lo >= 1  # Landau for nonzero integer polynomials
        # refined-root oracle: recompute the product from finer enclosures
        from gapkit.intpoly import is_squarefree, squarefree_part
        from gapkit.rounding import RatInterval

        q = p if is_squarefree(p) else None
        if q is None:
            continue
        prod = RatInterval(abs(p.lead))
        for e in isolate_roots(q, Fraction(1, 10 ** 30)):
            a = e.abs_interval()
            prod = prod * RatInterval(max(a.lo, 1), max(a.hi, 1))
        assert m.lo <= prod.hi and prod.lo <= m.hi


def test_house_examples():
    h = house(IntPoly((-2, 0, 1)))
    assert h.lo <= root_up(2, 2) and root_down(2, 2) <= h.hi
    h3 = house(IntPoly((-2, 0, 0, 1)))
    target = Fraction(2) ** Fraction(1)  # 2^(1/3): compare via cubes
    assert h3.lo ** 3 <= 2 <= h3.hi ** 3
    h1 = house(IntPoly((-5, 1)))
    assert 5 in __import__("gapkit.rounding", fromlist=["RatInterval"]).RatInterval(h1.lo, h1.hi)
    with pytest.raises(ValueError):
        house(IntPoly((7,)))


def test_separation_bound_examples():
    b = root_separation_lower_bound(IntPoly((-2, 0, 1)), IntPoly((0, 1)))
    # formula: 2^-1 * 3^(-5/2) * 2^-4, rounded down; also below sqrt(2)
    assert 0 < b
    assert b ** 2 <= Fraction(1, 4) * Fraction(1, 3 ** 5) * Fraction(1, 2 ** 8)
    assert b <= root_up(2, 2)
    b2 = root_separation_lower_bound(IntPoly((0, 1)), IntPoly((1, 1)))
    assert b2 == Fraction(1, 2) <= 1  # separation of 0 and -1 is 1


def test_separation_bound_below_true_separation():
    rng = random.Random(37)
    done = 0
    while done < 100:
        p = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 4))])
        q = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, p.degree + 1 if p.degree >= 1 else 2))])
        if p.degree < 1 or q.degree < 0 or q.is_zero or p.degree < q.degree:
            continue
        if poly_gcd_q(p, q).degree != 0:
            continue
        from gapkit.intpoly import is_squarefree, squarefree_part

        bound = root_separation_lower_bound(p, q)
        ps = p if is_squarefree(p) else squarefree_part(p)
        qs = q if is_squarefree(q) else squarefree_part(q)
        if qs.degree < 1:
            continue
        ep = isolate_roots(ps, Fraction(1, 10 ** 15))
        eq = isolate_roots(qs, Fraction(1, 10 ** 15))
        min_hi = min(a.distance_interval(b).hi for a in ep for b in eq)
        assert bound <= min_hi, (p, q)
        done += 1


def test_lone_real_root_ordered_by_real_part():
    # 2x^3 + 2x^2 + 4x + 3: real root -0.812, complex pair at Re -0.094
    encl = isolate_roots(IntPoly((3, 4, 2, 2)))
    assert [e.is_real for e in encl] == [True, False, False]
    assert encl[0].interval.hi < isolation._span(encl[1].disk, encl[1].bits).lo
    assert encl[1].disk[1] < 0 < encl[2].disk[1]


def test_root_systems_bounded_lru(monkeypatch):
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    polys = [IntPoly((-k, 0, 1)) for k in range(2, 102)]    # x^2 - k

    def bounds(p):
        return [(e.interval.lo, e.interval.hi) for e in isolate_roots(p)]

    first = [bounds(p) for p in polys[:2]]
    for k, p in enumerate(polys):
        isolate_roots(p)
        if k % 10 == 0:
            isolate_roots(polys[0])     # kept in use: never the oldest
    cached = set(isolation._SYSTEMS)
    assert len(cached) == 64
    assert polys[0].coeffs in cached and polys[1].coeffs not in cached
    assert {p.coeffs for p in polys[-63:]} <= cached
    # an evicted system is rebuilt with the same certified enclosures
    assert bounds(polys[1]) == first[1]


def _enclosure_key(e):
    return e.index, e.disk, e.bits


def _fresh_view(p, width):
    table = isolation.root_system(p).scaled(width)
    return ([_enclosure_key(e) for e in isolate_roots(p, width)],
            (table.bits, table.alpha, table.inverse, table.mirror))


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=5),
       st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=30))
@example([-2, 0, 0, 1], 12, 30)        # x^3 - 2: a real root and a complex pair
@example([1, -3, 0, 1], 12, 30)        # x^3 - 3x + 1: three real roots
@example([3, 4, 2, 2], 20, 25)         # 2x^3 + 2x^2 + 4x + 3
@settings(max_examples=25, deadline=None)
def test_enclosures_do_not_depend_on_earlier_requests(coeffs, digits, step):
    # an enclosure is a function of (polynomial, index, width): the same on a
    # cold cache, after a finer request and after a coarser one
    p = IntPoly(coeffs)
    assume(p.degree >= 2 and is_squarefree(p))
    width = Fraction(1, 10 ** digits)
    views = []
    for earlier in (None, width / 10 ** step, width * 10 ** step):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(isolation, "_SYSTEMS", {})
            if earlier is not None:
                isolate_roots(p, earlier)
            views.append(_fresh_view(p, width))
    assert views[1] == views[0] and views[2] == views[0]


def test_roots_closer_than_double_precision_certify():
    # M ((x - 1)^2 + 1)^2 + 1 with M = 2^130: two roots near 1 + i and two
    # near 1 - i, each pair about 2^-65 apart
    m = 2 ** 130
    p = IntPoly((4 * m + 1, -8 * m, 8 * m, -4 * m, m))
    encl = isolate_roots(p)
    with mpmath.workdps(80):
        roots = mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=400,
                                 extraprec=400)
        assert min(abs(a - b) for a in roots for b in roots if a != b) < mpmath.mpf(2) ** -60
        for e in encl:
            one = mpmath.mpf(2) ** e.bits
            c = mpmath.mpc(e.disk[0], e.disk[1]) / one
            assert sum(abs(r - c) < e.disk[2] / one for r in roots) == 1


# -- seeding against an independent reference ------------------------------------

def _mpf_fraction(x):
    return Fraction(*to_rational(x._mpf_))


def _reference_disks(p, bits):
    """Sorted disks at the scale 2**bits for the nonreal roots of p from
    mpmath's Durand-Kerner roots (``polyroots``) at 120 + 120 bits: each
    root above the real axis with its coordinates rounded to 53 significant
    bits, which the scale must hold with 31 bits to spare, its radius from
    ``_newton``, and the mirrors."""
    with mpmath.workprec(120):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(p.coeffs)],
                                 maxsteps=200, extraprec=120)
    with mpmath.workprec(53):
        centers = [(_mpf_fraction(+mpmath.mpf(z.real)), _mpf_fraction(+mpmath.mpf(z.imag)))
                   for z in roots if mpmath.im(z) > 0]
    assert all(q.denominator.bit_length() + 31 <= bits for c in centers for q in c)
    disks = []
    for x, y in centers:
        re, im = int(x * (1 << bits)), int(y * (1 << bits))
        disks.append((re, im, isolation._newton(p, p.derivative(), re, im, bits)[0]))
    return sorted(disks + [(re, -im, rad) for re, im, rad in disks])


# forms high to low: the D12 form, the benchmark's seeded cubics and quartics
# for seeds 1 to 3, the README's, and x^4 + 1, x^7 - 3 and 5x^10 + 1
_SEEDING_FORMS = [
    [3, -18, 139, -530, 745, 2, -679, 2, 745, -530, 139, -18, 3],
    [1, 0, -3, -1], [3, -4, 1, -2], [3, 2, -8, 2, 3], [1, -3, -1, -1, 2],
    [1, 1, -2, -1], [1, 0, -1, 3], [1, -3, -6, -1], [2, 0, 1, 4],
    [1, -1, -4, -1], [1, -2, 4, 5], [1, -2, -3, -2, 1], [2, -3, -3, -3, 1],
    [1, -2, -5, -1], [1, -2, 0, -3], [1, 0, -2, -5],
    [1, -5, -8, -1], [1, -2, -1, -4], [2, -3, -6, -3, 2], [3, -2, 2, -4, 4],
    [1, 5, -1, 5], [1, -3, 3, 2],
    [1, -1, -4, 4, 1], [1, 0, -3, 1], [1, 0, 0, -2],
    [1, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, -3], [5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]


@pytest.mark.parametrize("form", _SEEDING_FORMS, ids=str)
def test_seeds_give_the_reference_disks(form):
    # the form and its reciprocal, F(x, 1) and F(1, y); the real roots'
    # centers enter the common scale, so the reference is built at it
    for p in (IntPoly(form[::-1]), IntPoly(form)):
        bits, disks = isolation._certified_disks(p)
        assert sorted(d for d in disks if d[1]) == _reference_disks(p, bits)


def _scaled(coeffs, k):
    """Integer coefficients (low to high) of the polynomial whose roots are
    those of ``coeffs`` divided by 2**k."""
    n = len(coeffs) - 1
    return [c << k * j if k >= 0 else c << -k * (n - j) for j, c in enumerate(coeffs)]


_seed_factor = st.tuples(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
                         st.sampled_from([1, -1, 2, 3, 7]),
                         st.integers(min_value=-1200, max_value=1200))


@given(_seed_factor, st.one_of(st.none(), _seed_factor), st.integers(min_value=0, max_value=150))
# the 2^3300 + 1 cubic, whose roots are about 2^-1100
@example(([-3, 0, 0], 1, 1100), None, 0)
@example(([1, 0, 0, 0], 1, -1000), None, 0)                  # x^4 + 2^-4000
@example(([1, 1], 1, 0), ([1, 0, 0, 0, 0, 0, 0], 5, 0), 0)  # (x^2 + x + 1)(5x^7 + 1)
# nonreal roots near 1 and near 2^-150, and near 2^150 and near 1
@example(([1, 1], 1, 0), ([1, 1, 1, 1], 2, 0), 150)
@example(([3, -1, 2], 1, -150), ([2, 0, 1], 1, 0), 150)
@settings(max_examples=40, deadline=None)
def test_certified_disks_hold_one_root_each(a, b, spread):
    # degrees 3 to 12, roots of sizes up to 2^1200 and down to 2^-1200, and
    # a second factor 2^spread times smaller: every certified disk holds
    # exactly one mpmath root of a factor, scaled exactly by its power of two,
    # and lies on the real axis exactly when that root is real
    factors = [(tail + [lead], k) for tail, lead, k in [a] + ([] if b is None else [b[:2] + (a[2] + spread,)])]
    p = IntPoly((1,))
    for coeffs, k in factors:
        p = p * IntPoly(_scaled(coeffs, k))
    assume(p.degree >= 3 and is_squarefree(p))
    roots = []
    with mpmath.workdps(80):
        for coeffs, k in factors:
            roots += [(r * mpmath.ldexp(1, -k), k) for r in
                      mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=400)]
        bits, disks = isolation._certified_disks(p)
        assert len(disks) == len(roots)
        for re, im, rad in disks:
            c = mpmath.mpc(re, im) * mpmath.ldexp(1, -bits)
            held = [r for r, k in roots
                    if abs(r - c) <= mpmath.ldexp(rad, -bits) + mpmath.ldexp(1, -k - 200)]
            assert len(held) == 1
            assert (im == 0) == (mpmath.im(held[0]) == 0)


def test_seeds_that_miss_a_root_are_not_certified(monkeypatch):
    # x^3 - 2 seeded without its real root: the two disks are disjoint and
    # each holds a root, but two disks for three roots certify nothing, so
    # that attempt is skipped, and with no other attempt isolation abstains
    p = IntPoly((-2, 0, 0, 1))
    seeds = next(isolation._numeric_seeds(p))
    partial = [z for z in seeds if z[1]]
    monkeypatch.setattr(isolation, "_numeric_seeds", lambda p: [partial, seeds])
    bits, disks = isolation._certified_disks(p)
    assert len(disks) == 3 and sum(d[1] == 0 for d in disks) == 1
    monkeypatch.setattr(isolation, "_numeric_seeds", lambda p: [partial])
    with pytest.raises(isolation.PrecisionError):
        isolation._certified_disks(p)


def test_cubic_with_a_3301_bit_lead_certifies():
    # (2^3300 + 1) x^3 - 3: roots r, r w, r w^2 with r about 2^-1100, far
    # below the float range, at a width that separates them
    encl = isolate_roots(IntPoly((-3, 0, 0, 2 ** 3300 + 1)), Fraction(1, 2 ** 1200))
    assert [e.is_real for e in encl] == [False, False, True]
    with mpmath.workprec(1400):
        r = mpmath.cbrt(3 / (mpmath.mpf(2) ** 3300 + 1))
        roots = [r * mpmath.expjpi(mpmath.mpf(2 * k) / 3) for k in range(3)]
        for e in encl:
            c = mpmath.mpc(e.disk[0], e.disk[1]) * mpmath.ldexp(1, -e.bits)
            assert sum(abs(z - c) <= mpmath.ldexp(e.disk[2], -e.bits) for z in roots) == 1


def test_real_roots_2_to_the_minus_310_apart_separate():
    # 2^620 x^2 - 2: real roots +-sqrt(2) 2^-310, each in a disk of its own
    encl = isolate_roots(IntPoly((-2, 0, 2 ** 620)))
    assert [e.is_real for e in encl] == [True, True]
    assert encl[0].interval.hi < encl[1].interval.lo
    with mpmath.workprec(800):
        r = mpmath.sqrt(2) * mpmath.ldexp(1, -310)
        for e, z in zip(encl, (-r, r)):
            lo, hi = e.interval.lo, e.interval.hi
            assert mpmath.mpf(lo.numerator) / lo.denominator <= z
            assert z <= mpmath.mpf(hi.numerator) / hi.denominator


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=8))
@example([-2, 0, 2 ** 40])
@settings(max_examples=30, deadline=None)
def test_separation_bits_lie_below_the_root_distances(coeffs):
    p = IntPoly(coeffs)
    assume(p.degree >= 2 and is_squarefree(p))
    s = isolation.separation_bits(p)
    with mpmath.workprec(200 + 4 * s):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(p.coeffs)],
                                 maxsteps=400, extraprec=400 + 8 * s)
        assert min(abs(a - b) for i, a in enumerate(roots) for b in roots[:i]) > mpmath.ldexp(1, -s)


@pytest.mark.parametrize("sign", [1, -1])
def test_roots_spread_beyond_the_float_range_certify(sign):
    # (x^2 + s)(2^2400 x^2 + s): scaled to roots of modulus 1, the constant
    # 2^-2405 underflows a float, and the float seeds miss the roots near
    # 2^-1200; the Newton polygon starts mpmath's iteration at their modulus
    encl = isolate_roots(IntPoly((sign, 0, 1)) * IntPoly((sign, 0, 2 ** 2400)),
                         Fraction(1, 2 ** 1300))
    assert [e.is_real for e in encl] == [sign < 0] * 4
    with mpmath.workprec(1500):
        r = mpmath.ldexp(1, -1200)
        roots = [z * (1 if sign < 0 else 1j) for z in (-1, -r, r, 1)]
        for e in encl:
            c = mpmath.mpc(e.disk[0], e.disk[1]) * mpmath.ldexp(1, -e.bits)
            assert sum(abs(z - c) <= mpmath.ldexp(e.disk[2], -e.bits) for z in roots) == 1


def test_zero_roots_certify():
    # x, and x (x^2 + 1)(2^600 x^2 - 3): a zero constant coefficient puts a
    # start point at 0, whose disk has radius 0
    assert [(e.disk, e.bits) for e in isolate_roots(IntPoly((0, 1)))] == [((0, 0, 0), 32)]
    encl = isolate_roots(IntPoly((0, 1)) * IntPoly((1, 0, 1)) * IntPoly((-3, 0, 2 ** 600)))
    assert [e.is_real for e in encl] == [True, False, True, False, True]
    assert encl[2].disk == (0, 0, 0)


def test_large_coefficient_real_root_counts_match_sympy():
    # products of two factors with roots scaled by 2^k, |k| <= 600: as many
    # real disks as sympy finds real roots, and p changes sign (or vanishes)
    # across each real disk's diameter
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    done = 0
    while done < 10:
        p = IntPoly((1,))
        for _ in range(2):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            p = p * IntPoly(_scaled(coeffs + [rng.choice([1, 2, 3, -1, 7])],
                                    rng.randint(-600, 600)))
        if p.degree < 3 or not is_squarefree(p):
            continue
        real = [e.interval for e in isolate_roots(p) if e.is_real]
        x = sympy.Symbol("x")
        assert len(real) == len(sympy.real_roots(sympy.Poly(p.coeffs[::-1], x)))
        assert all(p.eval_at(iv.lo) * p.eval_at(iv.hi) <= 0 for iv in real)
        done += 1


def _mirror(disk):
    return disk[0], -disk[1], disk[2]


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=7),
       st.integers(min_value=1, max_value=40))
# x^2 + 4^112 + 1: the roots are +-i (2^112 + 2^-113 - ...), so the seeds are
# +-i 2^112 exactly, and at width 10^-12 (112 bits) the first Newton step is
# exactly half a unit, where rounding each disk to the nearest unit on its
# own would break the mirror
@example([4 ** 112 + 1, 0, 1], 12)
@example([3, 4, 2, 2], 30)
@settings(max_examples=30, deadline=None)
def test_conjugate_disks_are_mirrors_and_hold_their_roots(coeffs, digits):
    p = IntPoly(coeffs)
    assume(p.degree >= 2 and is_squarefree(p))
    assume(not all(e.is_real for e in isolate_roots(p)))
    for width in (Fraction(1, 10 ** digits), Fraction(1, 10 ** (2 * digits + 20))):
        encl = isolate_roots(p, width)
        disks = {(e.disk, e.bits) for e in encl if not e.is_real}
        assert all((_mirror(d), b) in disks for d, b in disks)
        table = isolation.root_system(p).scaled(width)
        for i, j in enumerate(table.mirror):
            if j is not None:
                assert table.alpha[j] == _mirror(table.alpha[i])
                assert table.inverse[j] == (table.inverse[i] and _mirror(table.inverse[i]))
        # 60 digits beyond the width and the size of the roots
        with mpmath.workdps(60 + 2 * digits + 20 + len(str(max(map(abs, coeffs))))):
            roots = mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=400,
                                     extraprec=1000)
            # a rational root may be a disk of radius 0, which mpmath's root
            # meets within its own error
            tol = mpmath.mpf(10) ** -(2 * digits + 40)
            for e in encl:
                one = mpmath.mpf(2) ** e.bits
                c = mpmath.mpc(e.disk[0], e.disk[1]) / one
                assert sum(abs(r - c) <= e.disk[2] / one + tol for r in roots) == 1


def _small_factor(rng):
    """A factor of degree 1 to 4 with small coefficients; of degree 1 with
    a dyadic root, a non-dyadic rational root or an integer root."""
    deg = rng.randint(1, 4)
    if deg == 1:
        num = rng.randint(-9, 9)
        den = rng.choice([1, 2, 4, 8, 3, 5, 6, 7, 9])
        return IntPoly((-num, den))
    return IntPoly([rng.randint(-5, 5) for _ in range(deg)] + [rng.choice([1, 2, 3, -1])])


def _squarefree_products(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = IntPoly((1,))
        for _ in range(rng.randint(1, 4)):
            q = _small_factor(rng)
            if p.degree + q.degree <= 9:
                p = p * q
        if p.degree >= 1 and is_squarefree(p):
            out.append(p)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_real_and_nonreal_disks_hold_one_mpmath_root(seed):
    # squarefree products of small factors of degree 1 to 9, with rational
    # roots dyadic and not: every disk holds one mpmath root, on the real
    # axis exactly when the root is real, within the width asked for
    for p in _squarefree_products(seed, 12):
        with mpmath.workdps(120):
            roots = mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=400,
                                     extraprec=2000)
            real = [abs(mpmath.im(r)) < mpmath.mpf(10) ** -60 for r in roots]
            tol = mpmath.mpf(10) ** -80
            for width in (Fraction(1, 10 ** 6), Fraction(1, 10 ** 30)):
                encl = isolate_roots(p, width)
                assert len(encl) == p.degree
                for e in encl:
                    assert e.width() <= width
                    one = mpmath.mpf(2) ** e.bits
                    c = mpmath.mpc(e.disk[0], e.disk[1]) / one
                    held = [k for k, r in enumerate(roots)
                            if abs(r - c) <= e.disk[2] / one + tol]
                    assert len(held) == 1, (p, e)
                    assert e.is_real == (e.disk[1] == 0) == real[held[0]], (p, e)


# -- integer disks against exact complex arithmetic ------------------------------

_coord = st.integers(min_value=-2 ** 80, max_value=2 ** 80)
_disk = st.tuples(_coord, _coord, st.integers(min_value=0, max_value=2 ** 60))


def _points(a, bits):
    """The center of the integer disk a and its boundary points
    c + r (+-3 +-4i) / 5, as exact (re, im) Fraction pairs."""
    den = 5 << bits
    return [(Fraction(5 * a[0] + u * a[2], den), Fraction(5 * a[1] + v * a[2], den))
            for u, v in ((0, 0), (3, 4), (3, -4), (-3, 4), (-3, -4))]


def _inside(z, a, bits):
    one = 1 << bits
    return (z[0] * one - a[0]) ** 2 + (z[1] * one - a[1]) ** 2 <= a[2] ** 2


def _sub(z, w):
    return z[0] - w[0], z[1] - w[1]


def _mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _div(z, w):
    n = w[0] ** 2 + w[1] ** 2
    return _mul(z, (w[0] / n, -w[1] / n))


@given(_disk, _disk, st.integers(min_value=1, max_value=96))
# points whose exact product lies half a unit off the grid, in the real part
# (1/2 * 1/2 at 2^-1) and in both parts ((1 + i) 2 / 16 at 2^-2): the
# rounded center misses it, and only disk_mul's extra unit of radius covers it
@example((1, 0, 0), (1, 0, 0), 1)
@example((1, 1, 0), (2, 0, 0), 2)
# and quotients likewise half a unit off it ((1/2) / 2 and ((1 + i) / 2) / 2
# at 2^-1), which only disk_div's extra unit of radius covers
@example((1, 0, 0), (4, 0, 0), 1)
@example((1, 1, 0), (4, 0, 0), 1)
# externally tangent disks share one point, so they are not disjoint: the
# root count rests on this comparison being strict
@example((0, 0, 3), (5, 0, 2), 1)
@example((0, 0, 2), (3, 4, 3), 1)
@settings(max_examples=200, deadline=None)
def test_integer_disk_operations_contain_the_exact_results(a, b, bits):
    # closed disks meet exactly when the point dividing the centers' segment
    # in the ratio r1 : r2 lies in both
    t = Fraction(a[2], a[2] + b[2]) if a[2] + b[2] else Fraction(0)
    one = 1 << bits
    witness = (Fraction(a[0] + t * (b[0] - a[0]), one), Fraction(a[1] + t * (b[1] - a[1]), one))
    assert disk_disjoint(a, b) == (not (_inside(witness, a, bits) and _inside(witness, b, bits)))
    pairs = [(z, w) for z in _points(a, bits) for w in _points(b, bits)]
    assert all(_inside(_sub(z, w), disk_sub(a, b), bits) for z, w in pairs)
    assert all(_inside(_mul(z, w), disk_mul(a, b, bits), bits) for z, w in pairs)
    try:
        q = disk_div(a, b, bits)
    except ZeroDivisionError:
        # only when the divisor's center is within rad + 1 units of 0
        assert b[0] ** 2 + b[1] ** 2 < (b[2] + 1) ** 2
        return
    assert all(_inside(_div(z, w), q, bits) for z, w in pairs)


@given(_disk, st.integers(min_value=0, max_value=2 ** 40),
       st.sampled_from([(3, 4), (-4, 3), (0, -5), (5, 0)]), st.integers(min_value=-3, max_value=3))
@example(b=(0, 0, 10), k=1, unit=(3, 4), slack=0)      # internally tangent
@example(b=(0, 0, 10), k=1, unit=(3, 4), slack=1)      # one unit past it
@example(b=(7, -2, 10), k=0, unit=(5, 0), slack=1)     # larger, same center
@settings(max_examples=200, deadline=None)
def test_disk_within_is_exact(b, k, unit, slack):
    # a's center lies 5k units from b's along a Pythagorean direction, so the
    # point of a farthest from b's center lies exactly 5k + rad from it:
    # a lies in b exactly when 5k + rad <= rad_b
    rad = b[2] - 5 * k + slack
    assume(rad >= 0)
    a = (b[0] + k * unit[0], b[1] + k * unit[1], rad)
    assert isolation._disk_within(a, b) == (5 * k + rad <= b[2])


@given(st.lists(_disk, min_size=1, max_size=5), st.integers(min_value=1, max_value=96),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_disk_elementary_contains_the_exact_functions(disks, bits, corner):
    # one point of each disk (its center or a boundary point), e_1..e_n exact
    points = [_points(a, bits)[corner] for a in disks]
    e = [(Fraction(1), Fraction(0))]
    for z in points:
        e = [e[0]] + [(x[0] + m[0], x[1] + m[1])
                      for x, m in zip(e[1:] + [(Fraction(0), Fraction(0))],
                                      (_mul(z, w) for w in e))]
    got = disk_elementary(disks, bits)
    assert len(got) == len(disks)
    assert all(_inside(z, a, bits) for z, a in zip(e[1:], got))


@given(_disk, st.integers(min_value=1, max_value=96))
@settings(max_examples=200, deadline=None)
def test_disk_holds_integer_never_misses_one(a, bits):
    # the integers nearest the center's real part are the only candidates
    one = 1 << bits
    near = [a[0] // one + k for k in (-1, 0, 1, 2)]
    if any(_inside((Fraction(n), Fraction(0)), a, bits) for n in near):
        assert disk_holds_integer(a, bits)


@given(st.integers(min_value=-2 ** 40, max_value=2 ** 40),
       st.integers(min_value=-2 ** 12, max_value=2 ** 12),
       st.integers(min_value=0, max_value=2 ** 12), st.integers(min_value=1, max_value=12))
@example(re=2, im=1, rad=2, bits=2)     # the chord (2 +- sqrt(3)) / 4 holds no integer
@settings(max_examples=200, deadline=None)
def test_disk_holds_integer_is_exact(re, im, rad, bits):
    # True exactly when some integer n lies in the disk, every candidate n
    # between the ends of its real span tried
    one = 1 << bits
    near = range((re - rad) // one, (re + rad) // one + 1)
    assert disk_holds_integer((re, im, rad), bits) == any(
        (n * one - re) ** 2 + im * im <= rad * rad for n in near)


def test_disk_holds_integer_examples():
    bits = 8
    assert disk_holds_integer((3 << bits, 0, 0), bits)
    assert not disk_holds_integer((3 << bits | 128, 0, 127), bits)    # 3.5 +- 0.496
    assert disk_holds_integer((3 << bits | 128, 0, 128), bits)
    assert not disk_holds_integer((3 << bits, 10, 9), bits)           # off the axis
    assert not disk_holds_integer((-(3 << bits) - 128, 0, 100), bits)


@given(st.integers(min_value=-2 ** 40, max_value=2 ** 40),
       st.integers(min_value=1, max_value=2 ** 40), st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=64))
@example(re=3, im=1, rad=0, p=0, q=1, bits=1)       # |3/2 + i/2|**2 = 5/2
@settings(max_examples=200, deadline=None)
def test_disk_distance_brackets_the_center_exactly(re, im, rad, p, q, bits):
    # an off-axis center's squared distance n is rarely a perfect square:
    # the upper end must then come from the ceiling of its root, not isqrt
    one = 1 << bits
    n = (re * q - p * one) ** 2 + (im * q) ** 2
    lo, hi = disk_distance((re, im, rad), p, q, one)
    r = rad * q
    assert (hi - r) ** 2 >= n
    assert lo == 0 or (lo + r) ** 2 <= n
    assert hi - lo <= 2 * r + 1


@pytest.mark.parametrize("im, rad", [(1, 2), (3, 5), (7, 9), (12, 20), (100, 101)])
def test_disk_holds_integer_where_the_chord_ends_just_past_one(im, rad):
    # the chord re +- sqrt(rad**2 - im**2) ends at or just past the integer
    # k, by less than one unit, at either end; no other integer lies in the
    # disk (rad**2 - im**2 is a square for (3, 5) and (12, 20), where the
    # chord ends exactly on k)
    s = isqrt(rad * rad - im * im)
    for bits in ((2 * s).bit_length(), 40):
        for k in (-3, 0, 5):
            for re in ((k << bits) - s, (k << bits) + s):
                assert _inside((Fraction(k), Fraction(0)), (re, im, rad), bits)
                assert disk_holds_integer((re, im, rad), bits)
                assert disk_holds_integer((re, -im, rad), bits)


@pytest.mark.parametrize("coeffs", [[-2, 0, 0, 1],                        # x^3 - 2
                                    [-3, -2, 2 ** 620, 2 ** 620],          # roots 2^-310 apart
                                    [-3, 0, 0, 2 ** 3300 + 1]])            # roots near 2^-1100
def test_the_ladder_walks_its_rungs_then_abstains(coeffs, monkeypatch):
    # TABLE_WIDTH, then the width 2**-(2b - 48) at each rung, b the scale of
    # the rung before, until that width would lie nearer the width 2**-D,
    # D = max(bits, s + 300) (s = separation_bits), than the scale b; then
    # 2**-D itself: by default and at a depth past the default.
    # The scale is bits(1/width) + 48, or the base disks' plus 2 where that
    # is finer, which tiny roots keep until the rungs pass it, so it doubles
    # to 2b + 1 at each rung before the last.  Every table's disks have
    # radius at most two units and hold their roots, so the last rung's are
    # narrower than 2**-D; past it, PrecisionError
    p = IntPoly(coeffs)
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    system = isolation.root_system(p)
    s = isolation.separation_bits(system.poly)
    base = min(e.bits for e in system.base) + 2
    scaled = isolation._RootSystem.scaled
    for bits in (0, s + 1000):
        depth = max(bits, s + 300)
        asked, tables = [], []
        monkeypatch.setattr(isolation._RootSystem, "scaled",
                            lambda self, width: asked.append(width) or scaled(self, width))
        with pytest.raises(isolation.PrecisionError):
            for table in system.ladder(bits):
                tables.append(table)
        want, width = [], isolation.TABLE_WIDTH
        while not want or want[-1] != Fraction(1, 2 ** depth):
            want.append(width)
            b = max((1 / width).numerator.bit_length() + 48, base)
            doubled = 2 * b - 48
            width = Fraction(1, 2 ** (doubled if depth - doubled >= doubled - b else depth))
        assert asked == want
        assert [t.bits for t in tables] == [max((1 / w).numerator.bit_length() + 48, base)
                                            for w in asked]
        assert all(t.bits == max(2 * u.bits + 1, base) for u, t in zip(tables, tables[1:-1]))
        assert tables[-1].bits == depth + 49
    with mpmath.workprec(tables[-1].bits + 64):
        if coeffs[1:3] == [0, 0]:   # a x^3 + c: the cube roots of -c/a
            roots = [mpmath.cbrt(mpmath.mpf(-coeffs[0]) / coeffs[3]) * mpmath.expjpi(mpmath.mpf(2 * k) / 3)
                     for k in range(3)]
        else:
            roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=4000)
        for t in (tables[0], tables[-1]):
            one = mpmath.mpf(2) ** t.bits
            for re, im, rad in t.alpha:
                assert rad <= 2 and (im == 0 or abs(im) > rad)
                assert sum(abs(r * one - mpmath.mpc(re, im)) <= rad for r in roots) == 1


def test_the_ladder_goes_straight_to_a_depth_near_its_doubled_width():
    # x^3 - 3*2^600 x - 2^900, s = 1806: at the scale 1855 the doubled width
    # 2**-3662 lies 20 bits short of 2**-3682, so ladder(3682) goes straight
    # there (scale 3731), with no rung at the scale 3711 in between; by
    # default, 2**-2106 lies 300 bits past the doubled width 2**-1806 of the
    # scale 927, nearer than 927 lies to it, so the walk goes straight there
    system = isolation.root_system(IntPoly([-2 ** 900, -3 * 2 ** 600, 0, 1]))
    for bits, want in ((3682, [115, 231, 463, 927, 1855, 3731]),
                       (0, [115, 231, 463, 927, 2155])):
        scales = []
        with pytest.raises(isolation.PrecisionError):
            for table in system.ladder(bits):
                scales.append(table.bits)
        assert scales == want


def test_recip_pairs_a_root_with_its_inverse_only_when_the_polynomial_is_self_reciprocal():
    # on disks of 2**-4, 1/2 and 1000/2001 meet: (x - 2)(2x - 1) pairs the
    # roots 1/2 and 2, but (x - 2)(2001x - 1000) has no root that is
    # another's inverse
    for p, want in ((IntPoly((2, -5, 2)), [1, 0]), (IntPoly((2000, -5002, 2001)), [None, None])):
        table = isolation.ScaledRoots(list(isolation.root_system(p).base), 4, {})
        assert table.recip == want
