import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from gapkit import gap
from gapkit.algnum import AlgNum
from gapkit.gap import (ApproxPair, GapConstants, HypothesisError, MobiusRelation, _padic_distance,
                        archimedean_constants, c11, c15, c16, certify_quality_below,
                        check_gap_dichotomy, classic_gap_check,
                        compare_to_power, count_bound, derived_approx,
                        f_floor,
                        mobius_relation, nonarchimedean_constants,
                        resultant_gcd_bound, thue_siegel_conclusion,
                        thue_siegel_params, two_forms_constant,
                        vanishing_gap)
from gapkit.intpoly import IntPoly, poly_gcd_q
from gapkit.minpair import find_pair
from gapkit.padic import hensel_root
from gapkit.rounding import RatInterval, log_interval, pow_up, tidy_up
from tests.conftest import CUBIC
from tests.lewis_mahler import distance_to


def rand_coprime_pair(rng, max_deg=3, max_h=6):
    while True:
        p = IntPoly([rng.randint(-max_h, max_h) for _ in range(rng.randint(2, max_deg + 1))])
        q = IntPoly([rng.randint(-max_h, max_h) for _ in range(rng.randint(1, p.degree + 1 if p.degree >= 1 else 1))])
        if p.degree >= 1 and not q.is_zero and p.degree >= q.degree \
                and poly_gcd_q(p, q).degree == 0:
            return p, q


def test_c15_values():
    assert c15(2) == 2 ** 4 * 3 ** 8 == 104976
    up = c15(1)                                # 2 * 2^(5/2) = 8 sqrt 2
    assert up ** 2 >= 128 and up <= Fraction(11314, 1000)
    assert c15(3) == 2 ** 42
    with pytest.raises(ValueError):
        c15(0)


def test_c15_upper_bound_over_r_range():
    # exact comparison via 8th powers: C15(r)^8 <= (2^(d^2/4) ((d+2)/2)^((3d^2+4d)/8))^8,
    # with equality at r = d/2, so it is made on the exact square
    # C15(r)^2 = 2^(2r^2) (r+1)^(3r^2+2r); c15 is an upper bound on C15
    for d in range(3, 13):
        rhs8 = Fraction(2) ** (2 * d * d) * Fraction(d + 2, 2) ** (3 * d * d + 4 * d)
        for r in range(1, d // 2 + 1):
            square = Fraction(2) ** (2 * r * r) * Fraction(r + 1) ** (3 * r * r + 2 * r)
            assert square ** 4 <= rhs8, (d, r)
            assert c15(r) ** 2 >= square, r


def test_resultant_gcd_bound_examples():
    assert resultant_gcd_bound(IntPoly((-2, 0, 1)), IntPoly((1,))) == 1
    assert resultant_gcd_bound(IntPoly((2, 0, -1)), IntPoly((1,))) == 1
    with pytest.raises(ValueError):
        resultant_gcd_bound(IntPoly((0, 1)), IntPoly((0, 2)))


def test_resultant_gcd_divisibility_property():
    rng = random.Random(43)
    cases = 0
    while cases < 500:
        p, q = rand_coprime_pair(rng)
        r, s = p.degree, q.degree
        rho = resultant_gcd_bound(p, q)
        h = max(p.height(), q.height())
        assert 1 <= rho <= (r + 1) ** r * h ** (2 * r)
        for _ in range(3):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            if gcd(abs(a), abs(b)) != 1:
                continue
            g = gcd(abs(p.eval_pair(a, b, r)), abs(q.eval_pair(a, b, r)))
            if g == 0:
                continue
            assert rho % g == 0, (p, q, a, b)
            cases += 1


def test_two_forms_constant_case1():
    c = two_forms_constant(IntPoly((2, 0, -1)), IntPoly((1,)))
    # at least the closed-form floor 1/(2 sqrt(3) * 2) ~ 0.144
    assert c >= Fraction(14, 100)
    assert c > 0


def test_two_forms_lower_bound_property():
    rng = random.Random(47)
    cases = 0
    while cases < 200:
        p, q = rand_coprime_pair(rng, max_deg=3, max_h=5)
        r = p.degree
        c = two_forms_constant(p, q)
        assert c > 0
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        if (a, b) == (0, 0):
            continue
        lhs = max(abs(p.eval_pair(a, b, r)), abs(q.eval_pair(a, b, r)))
        rhs = c ** r * Fraction(max(abs(a), abs(b))) ** r
        assert lhs >= rhs, (p, q, a, b, c)
        cases += 1


def test_two_forms_cor44_floor_property():
    # the weaker explicit floor of the corollary also holds
    rng = random.Random(53)
    for _ in range(100):
        p, q = rand_coprime_pair(rng, max_deg=3, max_h=4)
        r = p.degree
        h = Fraction(max(p.height(), q.height()))
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if (a, b) == (0, 0):
            continue
        lhs = max(abs(p.eval_pair(a, b, r)), abs(q.eval_pair(a, b, r)))
        denom = Fraction(2) ** (r * r) * h ** (2 * r * r + r)
        floor8 = (Fraction(max(abs(a), abs(b))) ** r / denom) ** 2 \
            / Fraction(r + 1) ** (3 * r * r)
        assert Fraction(lhs) ** 2 >= floor8


def test_vanishing_gap_examples():
    x2, y2, bound = vanishing_gap(IntPoly((2, 0, -1)), IntPoly((1,)), 3, 2)
    assert (x2, y2) == (1, 4)
    assert Fraction(max(abs(x2), abs(y2))) >= bound
    x2, y2, _ = vanishing_gap(IntPoly((2, 0, -1)), IntPoly((1,)), 1, 1)
    assert (x2, y2) == (-1, 1)
    with pytest.raises(ZeroDivisionError):
        vanishing_gap(IntPoly((0, 1)), IntPoly((0, 1, 1)), 0, 1)


def test_vanishing_gap_property():
    rng = random.Random(59)
    cases = 0
    while cases < 200:
        p, q = rand_coprime_pair(rng)
        x1 = rng.randint(-25, 25)
        y1 = rng.randint(1, 25)
        if gcd(abs(x1), y1) != 1:
            continue
        r = max(p.degree, q.degree)
        if q.eval_pair(x1, y1, r) == 0:
            continue
        x2, y2, bound = vanishing_gap(p, q, x1, y1)
        # exact image: P(x1,y1) + (x2/y2) Q(x1,y1) = 0
        assert p.eval_pair(x1, y1, r) * y2 + x2 * q.eval_pair(x1, y1, r) == 0
        assert Fraction(max(abs(x2), abs(y2))) >= bound
        cases += 1


def test_derived_approx():
    assert derived_approx(1, 2, MobiusRelation(1, 1, 0, 1)) == (3, 2)
    assert derived_approx(5, 3, MobiusRelation(1, 0, 0, 1)) == (5, 3)
    rel = MobiusRelation(2, 1, 1, 1)
    x, y = derived_approx(4, 7, rel)
    adj = MobiusRelation(1, -1, -1, 2)  # adjugate: inverse up to sign
    assert derived_approx(x, y, adj) in ((4, 7), (-4, -7))


def test_quality_transport_identity(alpha_cubic, beta_cubic):
    # beta - x'/y' = (sv - tu)/((u a + v)(u(x/y) + v)) * (a - x/y), checked
    # as an enclosure identity.  (Expanding the difference directly gives the
    # factor sv - tu; the magnitudes are what the counting argument uses.)
    rel = mobius_relation(alpha_cubic, beta_cubic)
    assert rel is not None
    a = alpha_cubic.enclosure(Fraction(1, 10 ** 30)).interval
    b = beta_cubic.enclosure(Fraction(1, 10 ** 30)).interval
    for (x, y) in ((9, 5), (17, 9), (47, 25)):
        xp, yp = derived_approx(x, y, rel)
        lhs = b - Fraction(xp, yp)
        factor = Fraction(rel.s * rel.v - rel.t * rel.u)
        den = (rel.u * a + rel.v) * RatInterval(Fraction(rel.u * x + rel.v * y, y))
        rhs = RatInterval(factor) / den * (a - Fraction(x, y))
        assert lhs.intersects(rhs), (x, y)


def test_mobius_relation_cases(alpha_cubic, beta_cubic, alpha15, beta15):
    rel = mobius_relation(alpha_cubic, beta_cubic)
    assert rel is not None and rel.det != 0
    # beta * (u alpha + v) = s alpha + t exactly: verified through the pair
    assert mobius_relation(alpha15, beta15) is None      # r = 2
    rel_id = mobius_relation(alpha15, alpha15)
    assert rel_id is not None
    img = rel_id.image(ApproxPair(7, 3))
    assert (img.x, img.y) == (7, 3)


def test_mobius_relation_constructed(alpha15):
    # beta = (2 alpha + 1)/(alpha + 1): the recovered relation must be a
    # scalar multiple of (s, t, u, v) = (2, 1, 1, 1)
    from tests.test_minpair import _mobius_beta_of_alpha15

    beta = _mobius_beta_of_alpha15()
    rel = mobius_relation(alpha15, beta)
    assert rel is not None
    assert (rel.s, rel.t, rel.u, rel.v) in ((2, 1, 1, 1), (-2, -1, -1, -1))


def test_archimedean_constants_shape(alpha15, beta15):
    with pytest.raises(HypothesisError):
        archimedean_constants(alpha15, beta15, Fraction(4), 1)   # mu = d
    gc = archimedean_constants(alpha15, beta15, Fraction(7, 2), 1)
    assert gc.metric == "archimedean"
    assert gc.c_small >= 1 and gc.c_big > 0
    # monotone in C0 on all branches
    gc10 = archimedean_constants(alpha15, beta15, Fraction(7, 2), 10)
    assert gc10.c_small >= gc.c_small and gc10.c_big >= gc.c_big


def test_nonarchimedean_constants_d3(alpha_cubic, beta_cubic):
    xi = hensel_root(CUBIC, 17, 3)
    pair = find_pair(alpha_cubic, beta_cubic)
    gc = nonarchimedean_constants(xi, pair, Fraction(11, 4), 1)
    # C4 = (d + 2) C0 C12 c_alpha^{d/2} c_beta = 5 * 1 * 1 * 1 * 1
    assert gc.c_big == 5
    assert gc.c_small >= 1
    big_c0 = nonarchimedean_constants(xi, pair, Fraction(11, 4), 10 ** 12)
    assert any(name == "C0^(1/mu)" and Fraction(val) == big_c0.c_small
               for name, val in big_c0.provenance if name == "C0^(1/mu)") or \
        big_c0.c_small >= Fraction(10 ** 12) ** Fraction(4, 11) * Fraction(99, 100)


def test_padic_c11_is_the_largest_power_over_the_pairs():
    # 17-adic roots at distances 1, 1/17 and 1: the all-pairs maximum of
    # the rounded powers, taken from the least distance alone
    xs = [hensel_root(CUBIC, 17, 3), hensel_root(CUBIC, 17, 4),
          hensel_root(IntPoly((16, -3, 0, 1)), 17, 3)]
    mu = Fraction(11, 4)
    dists = [_padic_distance(xs[i], xs[j]) for i in range(3) for j in range(i + 1, 3)]
    assert sorted(dists) == [Fraction(1, 17), 1, 1]
    assert c11(xs, mu, 1) == tidy_up(max(pow_up(2 / dist, 1 / mu) for dist in dists))


def test_c11_examples(alpha_cubic):
    # two roots at distance 2, C0 = 1, mu = 2 -> exactly 1
    a = AlgNum.make(IntPoly((-1, 0, 1)), 0, check_irreducible=False)
    b = AlgNum.make(IntPoly((-1, 0, 1)), 1, check_irreducible=False)
    assert c11([a, b], Fraction(2), 1) <= Fraction(101, 100)
    roots = [AlgNum.make(CUBIC, i) for i in range(3)]
    v = c11(roots, Fraction(11, 4), 1)
    assert v > 1
    # uniqueness consequence on convergents: above C11 at most one root close
    from gapkit.thue import convergents

    target = roots[2]
    others = roots[:2]
    for pr in convergents(target, 10):
        if pr.height < v:
            continue
        close = 0
        for alg in roots:
            hi = distance_to(alg.enclosure(Fraction(1, 10 ** 30)), pr.value()).hi
            if hi.numerator ** 4 * pr.height ** 11 < hi.denominator ** 4:   # below H**(-11/4)
                close += 1
        assert close <= 1


def test_thue_siegel_params_assertions():
    ps = thue_siegel_params(3)
    assert ps.lam2 < Fraction(71, 50) ** 2 * 3       # lambda < 1.42 sqrt(3)
    assert ps.lam2 * ps.t2 * (1 - 2 * ps.a) ** 2 == 4   # lambda = 2/((1-2a) t)
    assert ps.tau2 == 4 * ps.a ** 2 * ps.t2           # tau = 2 a t
    assert ps.delta_inverse < 41667 * 9               # < 375003
    ps14 = thue_siegel_params(14, mahler_max_log=Fraction(3))
    assert ps14.A == 500 ** 2 * (3 + 7)
    with pytest.raises(HypothesisError):
        thue_siegel_params(2)


def test_thue_siegel_params_match_their_fraction_definitions():
    # the record's t^2, tau^2, lambda^2 and delta against their definitions
    # at a = 1/500, and each of the five assertions, as integer inequalities
    # in n = 250000 d + 1, against its Fraction form; at d = 2 the upper
    # bound on tau fails in both
    a = Fraction(1, 500)
    for d in range(2, 1001):
        t2 = 2 / (d + a * a)
        lam2 = 4 / ((1 - 2 * a) ** 2 * t2)
        delta = 6 * a * a / ((d + a * a) * (d - 1))
        e = 2 * d ** 3 + 2 * d ** 2 - 4 * d
        g = Fraction(d * (d + 1)) ** 2 * t2 - (4 + e)
        checks = (lam2 < Fraction(71, 50) ** 2 * d, 1 / delta < 41667 * d * d,
                  t2 < Fraction(2, d), g > 0 and 16 * e < g * g,
                  d * d * (1 - 2 * a) ** 2 * t2 > 4)
        assert gap._thue_siegel_checks(d) == checks, d
        assert all(checks) == (d >= 3)
        if d >= 3:
            ps = thue_siegel_params(d)
            assert (ps.a, ps.t2, ps.tau2, ps.lam2, ps.delta) == (
                a, t2, 4 * a * a * t2, lam2, delta)


def test_thue_siegel_conclusion_monotone():
    ps = thue_siegel_params(3)
    a = Fraction(500 ** 2 * 2)
    b1 = thue_siegel_conclusion(ps, a, a, Fraction(3))
    b2 = thue_siegel_conclusion(ps, a, a, Fraction(30))
    assert b2 > b1
    # substitution identity at H1 = 1: bound = delta^{-1} log(4e^A) - log(4e^A)
    b0 = thue_siegel_conclusion(ps, a, a, Fraction(1))
    log4ea = log_interval(Fraction(4)) + RatInterval(a)
    target = ps.delta_inverse * log4ea.hi - log4ea.lo
    assert target <= b0 <= target + Fraction(1, 1000)  # tidy_up slack only


def test_count_bound_values():
    assert count_bound(3, Fraction(11, 4), 12) == 768
    assert 2 * count_bound(3, Fraction(11, 4), 12) == 1536
    assert f_floor(3) == 64
    assert f_floor(10 ** 14) == 3
    assert 24 * f_floor(3) == 1536 and 24 * f_floor(10 ** 14) == 72
    with pytest.raises(HypothesisError):
        count_bound(3, Fraction(5, 2), 1)
    # monotone decreasing in mu - d/2 (fixed numerator, growing denominator)
    assert count_bound(3, Fraction(11, 4), 1) >= count_bound(3, Fraction(29, 10), 1)


def f_interval(d: int) -> RatInterval:
    """Certified enclosure of f(d) = 1 + (11.51 + 1.5 log d + log mu)/log(mu - d/2)
    at mu = (3d + 2)/4."""
    mu, prec = Fraction(3 * d + 2, 4), 320
    num = Fraction(1151, 100) + Fraction(3, 2) * log_interval(Fraction(d), prec) \
        + log_interval(mu, prec)
    den = log_interval(mu - Fraction(d, 2), prec)
    return RatInterval(1, 1) + num / den


def test_f_monotone_on_log_grid():
    values = []
    d = 3
    while d <= 10 ** 15:
        values.append(f_interval(d))
        d *= 10
    for a, b in zip(values, values[1:]):
        assert a.lo >= b.hi   # certified nonincreasing on the grid
    assert float(values[-1].lo) > 3.5  # limit is 3.5 from above


def test_c16_branches(alpha_cubic):
    roots = [AlgNum.make(CUBIC, i) for i in range(3)]
    pairwise = []
    for a in roots:
        for b in roots:
            if a.index == b.index:
                continue
            pair = find_pair(a, b) if a.is_real and b.is_real else None
            if pair is None:
                continue
            pairwise.append(archimedean_constants(a, b, Fraction(11, 4), 1,
                                                  pair=pair, rep=pair.rep))
    c_small = max(g.c_small for g in pairwise)
    c_big = max(g.c_big for g in pairwise)
    value, prov = c16(roots, Fraction(11, 4), 1, c_small, c_big)
    assert value >= max(g.c_small for g in pairwise)
    assert set(prov["branches"]) == {"uniqueness-C11", "pairwise-gap-floor",
                                     "large-height", "iteration-floor"}
    assert prov["argmax"] == "large-height"  # exp(A-scale) dominates at desk scale
    with pytest.raises(HypothesisError):
        # a tiny A makes (4 e^A)^(-1) enormous, violating the C0 hypothesis
        c16(roots, Fraction(11, 4), 1, c_small, c_big,
            mahler_max_log_up=Fraction(-3))


def test_c16_c0_hypothesis_boundary():
    # A = 500^2 (log M + d/2) = 1/4: the hypothesis C0 > (4 e^A)^(-1) reads
    # C0 > 0.19470..., so 1/5 passes and 19/100 fails
    roots = [AlgNum.make(CUBIC, i) for i in range(3)]
    log_m = Fraction(1, 4 * 500 ** 2) - Fraction(3, 2)
    value, prov = c16(roots, Fraction(11, 4), Fraction(1, 5), 1, 1,
                      mahler_max_log_up=log_m)
    assert value > 0 and prov["A"] == "1/4"
    with pytest.raises(HypothesisError, match="C0 must exceed"):
        c16(roots, Fraction(11, 4), Fraction(19, 100), 1, 1,
            mahler_max_log_up=log_m)


def test_check_gap_dichotomy_cases(alpha_cubic, beta_cubic):
    pair = find_pair(alpha_cubic, beta_cubic)
    rel = mobius_relation(alpha_cubic, beta_cubic, rep=pair.rep)
    constants = archimedean_constants(alpha_cubic, beta_cubic,
                                      Fraction(11, 4), Fraction(10 ** 4),
                                      pair=pair, rep=pair.rep).desk_mode()
    p1 = ApproxPair(9, 5)
    p2 = rel.image(p1)
    v = check_gap_dichotomy(alpha_cubic, beta_cubic, Fraction(11, 4),
                            Fraction(10 ** 4), p1, p2, constants, relation=rel)
    assert v.mobius_case
    v2 = check_gap_dichotomy(alpha_cubic, beta_cubic, Fraction(11, 4),
                             Fraction(10 ** 4), p1, ApproxPair(20, 13),
                             constants, relation=rel)
    assert v2.verdict == "GapHolds" and not v2.mobius_case
    with pytest.raises(HypothesisError):
        check_gap_dichotomy(alpha_cubic, beta_cubic, Fraction(11, 4),
                            Fraction(10 ** 4), ApproxPair(20, 13), p1,
                            constants, relation=rel)


@pytest.mark.parametrize("c_big, pairs", [
    (Fraction(1), [((32, 21), "Violation"), ((33, 20), "GapHolds")]),
    (Fraction(2), [((16, 11), "Violation"), ((17, 11), "GapHolds")])])
def test_the_gap_case_is_strict(alpha_cubic, beta_cubic, c_big, pairs):
    # H1 = 16 and e = mu - d/2 = 5/4: H1**e = 32 = C_big H2 is not a gap,
    # since the gap case H2 > C_big**-1 H1**e is strict; one more unit of
    # H2 is.  C0 = 10**4 certifies every pair here
    mu, c0 = Fraction(11, 4), Fraction(10 ** 4)
    constants = GapConstants("archimedean", Fraction(1), c_big, mu, c0, 3)
    for (x, y), want in pairs:
        v = check_gap_dichotomy(alpha_cubic, beta_cubic, mu, c0, ApproxPair(16, 9),
                                ApproxPair(x, y), constants, None)
        assert v.verdict == want


@pytest.mark.parametrize("c_big", [Fraction(1), Fraction(3),
                                   Fraction(2573951360557360741, 5000000000000)])
def test_the_gap_bound_lies_at_or_below_its_power(c_big):
    # gapBound, printed with rounding "down", and the value it prints lie at
    # or below H1**e / C_big (e = mu - d/2 = 5/4), checked by cross powers,
    # and within 10**-15 of it; H1 = 2**200 + 1 is no perfect fourth power
    h1 = 2 ** 200 + 1
    constants = GapConstants("archimedean", Fraction(1), c_big, Fraction(11, 4), Fraction(1), 3)
    value = gap._gap_bound(constants, h1)
    mant, _, exp = gap.gap_threshold(constants, h1)[-1].partition("*10^")
    printed = Fraction(mant) * Fraction(10) ** int(exp or 0)
    for v in (value, printed):
        assert (v * c_big) ** 4 <= h1 ** 5
    assert (value * c_big * (1 + Fraction(1, 10 ** 15))) ** 4 > h1 ** 5


def test_classic_gap_check(cbrt2):
    from gapkit.thue import convergents

    pairs = convergents(cbrt2, 10)
    rpt = classic_gap_check(pairs, Fraction(2), cbrt2)
    assert rpt["all_hold"] and len(rpt["solutions"]) == 10
    rpt25 = classic_gap_check(pairs, Fraction(5, 2), cbrt2)
    assert rpt25["all_hold"]
    assert len(rpt25["solutions"]) < 10  # mu = 2.5 filters convergents


def test_quality_checks_walk_past_their_threshold(cbrt2):
    # convergents of cbrt(2) up to height 10**100: |alpha - x/y| near
    # 2**-660, past the ladder's default 2**-308, is read to 300 bits past
    # each threshold C0 / H**mu, and the verdicts agree with mpmath
    from gapkit.thue import convergents

    pairs = convergents(cbrt2, max_den=10 ** 100)
    with mpmath.workprec(2000):
        want = [abs(mpmath.cbrt(2) - mpmath.mpf(pr.x) / pr.y) * pr.height ** 2 < 1
                for pr in pairs]
    assert [certify_quality_below(cbrt2, pr, Fraction(2), Fraction(1)) for pr in pairs] == want
    rpt = classic_gap_check(pairs, Fraction(2), cbrt2)
    assert rpt["all_hold"] and len(rpt["solutions"]) == len(pairs)


def test_quality_checks_take_the_next_rung_when_the_first_cannot_decide(cbrt2, ladder_widths,
                                                                        coarsen_first_rung):
    # the first rung's disks coarsened to whole units: |alpha - x/y| is read
    # as [0, 2] or so at each convergent, where no quality below 1 decides.
    # Both checks take the second rung, no further, and return what they
    # return on the true first rung, which mpmath confirms
    from gapkit.thue import convergents

    pairs = convergents(cbrt2, 10)
    cases = [(pr, mu, c0) for pr in pairs
             for mu, c0 in ((Fraction(2), Fraction(1)), (Fraction(5, 2), Fraction(1, 3)))]
    want = [certify_quality_below(cbrt2, pr, mu, c0) for pr, mu, c0 in cases]
    with mpmath.workdps(60):
        def ratio(q):
            return mpmath.mpf(q.numerator) / q.denominator

        assert want == [abs(mpmath.cbrt(2) - ratio(pr.value())) * pr.height ** ratio(mu)
                        < ratio(c0) for pr, mu, c0 in cases]
    assert True in want and False in want
    classic = classic_gap_check(pairs, Fraction(5, 2), cbrt2)
    rungs = ladder_widths(cbrt2.minpoly)
    asked = coarsen_first_rung()
    assert [certify_quality_below(cbrt2, pr, mu, c0) for pr, mu, c0 in cases] == want
    assert sorted(set(asked), reverse=True) == rungs[:2]
    asked.clear()
    assert classic_gap_check(pairs, Fraction(5, 2), cbrt2) == classic
    assert sorted(set(asked), reverse=True) == rungs[:2]


def test_compare_to_power_exactness():
    assert compare_to_power(Fraction(8), Fraction(2), Fraction(3)) == 0
    assert compare_to_power(Fraction(9), Fraction(2), Fraction(3)) == 1
    assert compare_to_power(Fraction(2), Fraction(8), Fraction(1, 3)) == 0
