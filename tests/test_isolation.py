import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gapkit import isolation
from gapkit.intpoly import IntPoly, is_squarefree, poly_gcd_q
from gapkit.isolation import (IsolationError, disk_disjoint, disk_distance, disk_div,
                              disk_elementary, disk_holds_integer,
                              disk_mul, disk_sub, house,
                              isolate_roots, mahler_measure,
                              root_separation_lower_bound, sturm_chain,
                              count_real_roots)
from gapkit.rounding import AbstainError, root_down, root_up


def bisection_oracle(p: IntPoly, lo: Fraction, hi: Fraction, steps=80):
    """Plain sign-bisection, independent of the Sturm machinery."""
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


def test_sturm_counts():
    p = IntPoly((-1, -3, 0, 1))
    chain = sturm_chain(p)
    assert count_real_roots(p, Fraction(-10), Fraction(10), chain) == 3
    assert count_real_roots(p, Fraction(0), Fraction(10), chain) == 1


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
            prod = prod * e.abs_interval().max_with(1)
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
    # 2x^3 + 2x^2 + 4x + 3: real root -0.812, complex pair at Re -0.094; the
    # real root's Sturm interval is the whole Cauchy range [-3, 3]
    encl = isolate_roots(IntPoly((3, 4, 2, 2)))
    assert [e.is_real for e in encl] == [True, False, False]
    assert encl[0].interval.hi < encl[1].re_interval().lo
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
    assume(p.degree > len(isolation.isolate_real_roots(p)))
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
