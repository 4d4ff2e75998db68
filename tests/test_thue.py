import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapkit import cli, gap, isolation, rounding, thue
from gapkit.algnum import (AlgNum, is_irreducible, liouville_c6, normalize_minimal_poly,
                           theta_upper_bound)
from gapkit.autgroup import (AutElement, EnhancedAut, aut_prime, d12_family,
                             root_orbit_partition)
from gapkit.binforms import BinForm, IntMat2, form_action
from gapkit.gap import (GapConstants, HypothesisError, arch_quality, archimedean_c2, c11,
                        c16, interval_vs_power)
from gapkit.intpoly import IntPoly
from gapkit.thue import (Solution, ThueError, ThueProblem, assign_root, c5,
                         census, convergents, enumerate_primitive,
                         galois_status, legendre_height, lewis_mahler_c10,
                         window_search)
from gapkit.minpair import c12_closed_form, c13_formula
from gapkit.rounding import (RatInterval, compact_str, monomial_up, pow_up, root_up,
                             tidy_up)
from tests.lewis_mahler import inverse_distance, lewis_mahler_check

CUBE_FORM = BinForm((1, 0, 0, -2))   # x^3 - 2y^3
# forms with a solution above their Legendre height H0 at m, so that the
# convergent search has something to find: (59, -45), (39, 23), (28, 9)
ABOVE_H0 = ((BinForm((1, 4, 2, -2)), 3), (BinForm((2, -2, 0, -4)), 5),
            (BinForm((1, -3, -1, 3, -3)), 4))


def naive_solutions(f: BinForm, m: int, bound: int):
    """(x, y, F(x, y)) of every sign-normalized solution in the box, by
    trying every pair."""
    out = set()
    d = f.degree
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            v = f.value(x, y)
            if 0 < abs(v) <= m:
                s = Solution.normalized(x, y, v, d)
                out.add((s.x, s.y, s.value))
    return out


def naive_enumeration(f: BinForm, m: int, bound: int):
    return {(x, y) for x, y, _ in naive_solutions(f, m, bound)}


@pytest.mark.parametrize("m", [1, 3])
def test_convergents_of_a_root_far_below_1(m):
    # the real root of (2^3300+1)x^3 - 3 is about 2^-1100, so its inverse
    # needs an enclosure about 2^-2200 finer than the root's own convergents
    f = BinForm((2 ** 3300 + 1, 0, 0, -3))
    sols = enumerate_primitive(ThueProblem(f, m, 10), 1)
    assert {(s.x, s.y) for s in sols} == naive_enumeration(f, m, 10)


def test_enumerate_examples():
    sols = enumerate_primitive(ThueProblem(CUBE_FORM, 1, 100))
    assert [(s.x, s.y) for s in sols] == [(1, 0), (1, 1)]
    with pytest.raises(ThueError):
        ThueProblem(CUBE_FORM, 0, 100)             # m = 0: strict inequality
    with pytest.raises(ThueError):
        ThueProblem(BinForm((1, 0, 0, 1)), 1, 10)  # x^3 + y^3 reducible


def test_enumeration_complete_vs_naive(cubic_form):
    for f, m, bound in ((CUBE_FORM, 1, 60), (cubic_form, 1, 60),
                        (cubic_form, 5, 40), (CUBE_FORM, 6, 50)):
        sols = enumerate_primitive(ThueProblem(f, m, bound))
        assert {(s.x, s.y) for s in sols} == naive_enumeration(f, m, bound)


# the wide regime: m set for at least 200 solutions at box 80, so delta0 =
# (m/|c_d|)**(1/d) is 10 to 15 and the shrinking radius r_i(y) binds from
# small heights on (the tests above use m <= 6, where it never does)
WIDE = ((BinForm((1, -1, -4, -1)), 1175),      # Galois cubic
        (BinForm((1, 0, -1, 3)), 2727),        # cubic with a complex pair
        (BinForm((3, -4, 1, -2)), 4006),       # cubic with c_d = 3, a complex pair
        (BinForm((2, -1, -5, -1, 2)), 27451),  # palindromic quartic, c_d = 2
        (BinForm((1, 0, 1, 1, 2)), 53777))     # quartic with two complex pairs


@pytest.mark.parametrize("f, m", WIDE)
def test_wide_regime_matches_naive(f, m):
    want = naive_solutions(f, m, 80)
    assert len(want) >= 200
    for sols in (window_search(f, m, 80), enumerate_primitive(ThueProblem(f, m, 80))):
        assert {(s.x, s.y, s.value) for s in sols} == want


@pytest.mark.parametrize("f, m", WIDE)
def test_windows_shrink_to_the_radius(f, m):
    """Each root's window is certified and no wider than the radius
    min(delta0, r_i(y)) taken with the exact root distances, and a nonreal
    root's window is empty once |Im alpha_i| y exceeds that radius."""
    d = f.degree
    table = isolation.root_system(normalize_minimal_poly(f.dehomogenize())).scaled(
        Fraction(1, 10 ** 12))
    with mpmath.workdps(40):
        exact = mpmath.polyroots(f.coeffs, maxsteps=200, extraprec=200)
        one = mpmath.mpf(2) ** table.bits
        roots = [min(exact, key=lambda r: abs(r - mpmath.mpc(re, im) / one))
                 for re, im, _ in table.alpha]
        k = mpmath.mpf(m) / abs(f.lead_x)
        delta0 = mpmath.root(k, d)
        slack = mpmath.mpf(10) ** -6
        for y, windows in thue._root_windows(f, m, 80):
            for i, (a, w) in enumerate(zip(roots, windows)):
                gaps = [abs(a - b) * y - delta0 for j, b in enumerate(roots) if j != i]
                rho = min(delta0, k / mpmath.fprod(gaps)) if min(gaps) > 0 else delta0
                far = abs(mpmath.im(a)) * y - rho
                if w is None:
                    assert far > -slack
                    continue
                assert far <= slack * (1 + rho)
                lo, hi = w
                assert lo <= a.real * y - rho + slack and hi >= a.real * y + rho - slack
                assert lo >= a.real * y - rho - 1 - slack * (1 + rho)
                assert hi <= a.real * y + rho + 1 + slack * (1 + rho)


def test_enumeration_complete_box500(cubic_form):
    sols = enumerate_primitive(ThueProblem(cubic_form, 1, 500))
    assert {(s.x, s.y) for s in sols} == naive_enumeration(cubic_form, 1, 500)


def test_sign_normalization_idempotent():
    s = Solution.normalized(-2, 1, CUBE_FORM.value(-2, 1), 3)
    assert (s.x, s.y) == (2, -1)
    s2 = Solution.normalized(s.x, s.y, s.value, 3)
    assert (s2.x, s2.y, s2.value) == (s.x, s.y, s.value)
    s3 = Solution.normalized(0, -1, CUBE_FORM.value(0, -1), 3)
    assert (s3.x, s3.y) == (0, 1)


def test_lewis_mahler_c10():
    c10 = lewis_mahler_c10(CUBE_FORM)
    # 4 sqrt(3) * M / |D|^(1/2) = 4/sqrt(3) ~ 2.3094, rounded up
    target = 4 / root_up(3, 2)
    assert c10 >= target
    assert c10 <= Fraction(231, 100)
    with pytest.raises(ThueError):
        lewis_mahler_c10(BinForm((1, 2, 0)))   # c_0 = 0


def test_lewis_mahler_inequality_on_solutions(cubic_form):
    for f in (CUBE_FORM, cubic_form):
        c10 = lewis_mahler_c10(f)
        for s in enumerate_primitive(ThueProblem(f, 2, 50)):
            assert lewis_mahler_check(f, s, c10), (f, s)


def test_assign_root_examples():
    sols = enumerate_primitive(ThueProblem(CUBE_FORM, 1, 100))
    by_pair = {(s.x, s.y): s for s in sols}
    system = isolation.root_system(CUBE_FORM.dehomogenize())
    # (1, 1): |alpha^{-1} - 1| = 0.2063 < |alpha - 1| = 0.2599: inverse side
    idx, side, tie = assign_root(system, [by_pair[(1, 1)]])[0]
    assert (idx, side, tie) == (2, "alpha_inv", False)
    # (1, 0): all inverse roots tie at modulus 2^(-1/3); real root reported
    idx, side, tie = assign_root(system, [by_pair[(1, 0)]])[0]
    assert side == "alpha_inv" and tie and idx == 2


# -- root assignment against 60-digit mpmath roots ------------------------------

def _mp_roots(f: BinForm) -> list:
    """Roots of F(x, 1) at 60 digits, in the documented root order: by real
    part, then imaginary part."""
    with mpmath.workdps(60):
        rs = [mpmath.mpc(r) for r in mpmath.polyroots(list(f.coeffs), maxsteps=400,
                                                       extraprec=400)]
        eps = mpmath.mpf(10) ** -40
        rs = [mpmath.mpc(r.real, 0) if abs(r.imag) < eps else r for r in rs]
    return sorted(rs, key=lambda r: (r.real, r.imag))


def _check_assignment(f: BinForm, roots: list, sol: Solution, got) -> None:
    """The reported (index, side) minimizes min(|alpha_i - x/y|,
    |alpha_i^{-1} - y/x|) over every root; a tie may report any tied
    candidate, and a candidate reported without a tie is the unique one."""
    idx, side, tie = got
    with mpmath.workdps(60):
        dist = {}
        for i, r in enumerate(roots):
            if sol.y != 0:
                dist[i, "alpha"] = abs(r - mpmath.mpf(sol.x) / sol.y)
            if sol.x != 0:
                dist[i, "alpha_inv"] = abs(1 / r - mpmath.mpf(sol.y) / sol.x)
        least = min(dist.values())
        close = {k for k, v in dist.items() if v - least <= least * mpmath.mpf(10) ** -40}
    assert (idx, side) in close, (f, sol, got, dist)
    if not tie:
        assert close == {(idx, side)}, (f, sol, got, dist)


# (form, m, box): a Shanks cubic with 1001 solutions, a cubic with one real
# root, the palindromic quartic, and a plain cubic with 600 solutions, 222
# of them at exact conjugate ties
ASSIGN_CASES = ((BinForm((1, 1, -2, -1)), 8219, 300),
                (BinForm((2, 2, 4, 3)), 6066, 100),
                (BinForm((3, 2, -8, 2, 3)), 26874, 40),
                (BinForm((1, 0, -1, 3)), 12579, 300))


@pytest.mark.parametrize("f, m, box", ASSIGN_CASES)
def test_assign_root_against_mpmath(f, m, box):
    sols = enumerate_primitive(ThueProblem(f, m, box))
    roots = _mp_roots(f)
    system = isolation.root_system(f.dehomogenize())
    assigned = assign_root(system, sols)
    assert len(assigned) == len(sols)
    ties = []
    for s, got in zip(sols, assigned):
        _check_assignment(f, roots, s, got)
        ties.append(got[2])
    assert len(sols) >= 150
    assert {(1, 0), (0, 1)} <= {(s.x, s.y) for s in sols}
    if f.degree == 3 and any(abs(r.imag) > 0 for r in roots):
        assert any(ties)        # conjugate pairs nearest to some x/y
    poly = normalize_minimal_poly(f.dehomogenize())
    assert 1 <= len(isolation.root_system(poly).tables) <= 5


def test_assign_root_conjugate_tie_and_zero_coordinates():
    # x^3 - 2y^3 at (1, -2): x/y = -1/2 is nearest the complex pair
    # -0.63 +- 1.09i, an exact tie broken to the smaller index
    roots = _mp_roots(CUBE_FORM)
    system = isolation.root_system(CUBE_FORM.dehomogenize())
    tie = Solution.normalized(1, -2, CUBE_FORM.value(1, -2), 3)
    assert assign_root(system, [tie])[0] == (0, "alpha", True)
    _check_assignment(CUBE_FORM, roots, tie, (0, "alpha", True))
    # (0, 1): only the alpha side, x/y = 0, and every root has modulus
    # 2**(1/3): a three-way tie the real root (index 2) wins
    zero_x = Solution.normalized(0, 1, CUBE_FORM.value(0, 1), 3)
    got = assign_root(system, [zero_x])[0]
    _check_assignment(CUBE_FORM, roots, zero_x, got)
    assert got == (2, "alpha", True)
    # (1, 0): only the alpha_inv side, y/x = 0: the same three-way tie
    zero_y = Solution.normalized(1, 0, CUBE_FORM.value(1, 0), 3)
    got = assign_root(system, [zero_y])[0]
    _check_assignment(CUBE_FORM, roots, zero_y, got)
    assert got == (2, "alpha_inv", True)


@pytest.mark.parametrize("f, xy, want", [
    (d12_family(3, 1), (1, 1), (8, "alpha", True)),
    (BinForm((3, 2, -8, 2, 3)), (1, 1), (2, "alpha", True)),
    (BinForm((1, 0, -4, 0, 2)), (1, 0), (0, "alpha_inv", True)),
    (BinForm((1, 0, -4, 0, 2)), (0, 1), (1, "alpha", True))])
def test_assign_root_recognises_exact_ties_at_the_first_rung(f, xy, want, monkeypatch):
    # F palindromic, at (1, 1), where x/y = y/x = 1: a root is exactly as far
    # from 1 as the inverse of its reciprocal partner; F even, at (1, 0) or
    # (0, 1), where the target is 0: a root (or inverse root) is exactly as
    # far from 0 as its negative.  Each tie is taken on the first rung, with
    # the pick that walking the rungs gave
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    system = isolation.root_system(f.dehomogenize())
    asked = []
    scaled = isolation._RootSystem.scaled
    monkeypatch.setattr(isolation._RootSystem, "scaled",
                        lambda self, width: asked.append(width) or scaled(self, width))
    assert assign_root(system, [Solution.normalized(*xy, f.value(*xy), f.degree)])[0] == want
    assert asked == [isolation.TABLE_WIDTH]


def test_assign_root_batch_walks_the_ladder_once(monkeypatch):
    # x^3 - 2y^3 at (0, 1): the real root and the complex pair are all
    # 2**(1/3) from the target 0, a tie no exact rule names, so it walks
    # every rung and is reported on PrecisionError; the first rung decides
    # each of the others.  In one batch each width is asked for once, and
    # every solution gets the answer of its own call
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    system = isolation.root_system(CUBE_FORM.dehomogenize())
    asked = []
    scaled = isolation._RootSystem.scaled
    monkeypatch.setattr(isolation._RootSystem, "scaled",
                        lambda self, width: asked.append(width) or scaled(self, width))
    batch = [Solution.normalized(x, y, CUBE_FORM.value(x, y), 3)
             for x, y in ((1, 1), (1, -2), (0, 1), (5, 4), (4, -3))]
    alone = []
    for s in batch:
        asked.clear()
        alone.append(assign_root(system, [s])[0])
        assert len(asked) == (system.rungs if (s.x, s.y) == (0, 1) else 1)
    asked.clear()
    got = assign_root(system, batch)
    assert len(asked) == len(set(asked)) == system.rungs
    assert got == tuple(alone) and got[2] == (2, "alpha", True)
    roots = _mp_roots(CUBE_FORM)
    for s, g in zip(batch, got):
        _check_assignment(CUBE_FORM, roots, s, g)


class _TwoRungs:
    """A hand-made ladder at scale 1 with the target 0 (the solution
    (0, 1)): on both rungs root 0 is the point 6 + 8i, at distance 10, so
    its U = a + b' + R is 14.  On the coarse rung root 1 is the disk of
    radius 7 around 16: its center lies past 14, but the disk reaches 9,
    so L = 16 - 7 = 9 keeps it.  The fine rung puts root 1 at 9, nearer
    than root 0.  An L without the radius (16 > 14), or a U of
    max(a, b') + R (8 < 9), would drop root 1 and decide root 0."""

    def ladder(self):
        for disk in ((16, 0, 7), (9, 0, 0)):
            yield SimpleNamespace(bits=0, alpha=[(6, 8, 0), disk], inverse=[None] * 2,
                                  mirror=[None] * 2, recip=[None] * 2, neg=[None] * 2)
        raise isolation.PrecisionError("two rungs only")


def test_assign_root_keeps_a_candidate_that_reaches_inside_by_its_radius():
    assert assign_root(_TwoRungs(), [Solution(0, 1, 1)]) == ((1, "alpha", False),)


@pytest.mark.parametrize("f, partner", [(d12_family(3, 1), "recip"),
                                        (BinForm((1, 0, -4, 0, 2)), "neg")])
def test_root_partners_are_the_inverses_and_the_negatives(f, partner):
    table = isolation.root_system(f.dehomogenize()).scaled(isolation.TABLE_WIDTH)
    pairing = getattr(table, partner)
    assert sorted(pairing) == list(range(f.degree))
    roots = _mp_roots(f)
    with mpmath.workdps(40):
        for i, k in enumerate(pairing):
            image = 1 / roots[i] if partner == "recip" else -roots[i]
            assert abs(image - roots[k]) < mpmath.mpf(10) ** -30
    # a root and its partner's inverse (or negative) tie only at one target,
    # x/y = y/x (or 0 on their side)
    if partner == "recip":
        a, b = (0, 1, 1, 0, "alpha"), (0, 1, 1, pairing.index(0), "alpha_inv")
        assert thue._exact_tie(table, a, b, 1, 1) and not thue._exact_tie(table, a, b, 1, 2)
    else:
        a, b = (0, 1, 1, 0, "alpha"), (0, 1, 1, pairing[0], "alpha")
        assert thue._exact_tie(table, a, b, 0, 1) and not thue._exact_tie(table, a, b, 1, 2)


def _exact_assign_root(f: BinForm, sol: Solution, budget: int = 5):
    """Reference: the same selection rules on the exact Fraction enclosures
    of every level, re-read from the root system for each solution."""
    poly = normalize_minimal_poly(f.dehomogenize())
    width = Fraction(1, 10 ** 12)
    for _ in range(budget):
        encl = isolation.isolate_roots(poly, width)
        cands = []
        for e in encl:
            if sol.y != 0:
                cands.append((e.distance_interval(Fraction(sol.x, sol.y)), e, "alpha"))
            if sol.x != 0:
                target = Fraction(sol.y, sol.x)
                if e.is_real and e.interval.lo * e.interval.hi > 0:
                    dist = (e.interval.inverse() - target).abs()
                else:
                    dist = inverse_distance(e, target)
                    if dist is None:
                        continue
                cands.append((dist, e, "alpha_inv"))
        best = min(cands, key=lambda c: c[0].hi)
        rivals = [c for c in cands if c is not best and c[0].lo < best[0].hi]
        ties = [c for c in rivals if c[2] == best[2] and not c[1].is_real
                and not best[1].is_real
                and c[1].disk == (best[1].disk[0], -best[1].disk[1], best[1].disk[2])]
        pick = min([best] + (ties if len(ties) == len(rivals) else rivals),
                   key=lambda c: (not c[1].is_real, c[1].index, c[2] != "alpha"))
        if len(ties) == len(rivals):
            return pick[1].index, pick[2], bool(ties)
        width /= 10 ** 8
    return pick[1].index, pick[2], True


@pytest.mark.parametrize("f, m, box", ASSIGN_CASES)
def test_assign_root_matches_exact_enclosures(f, m, box):
    system = isolation.root_system(f.dehomogenize())
    for s in enumerate_primitive(ThueProblem(f, m, box // 2)):
        assert assign_root(system, [s])[0] == _exact_assign_root(f, s), (f, s)


@pytest.mark.parametrize("f, m, box", ASSIGN_CASES)
def test_scaled_roots_contain_the_roots(f, m, box):
    poly = normalize_minimal_poly(f.dehomogenize())
    roots = _mp_roots(f)
    for width in (Fraction(1, 10 ** 12), Fraction(1, 10 ** 20)):
        table = isolation.root_system(poly).scaled(width)
        one = 1 << table.bits
        with mpmath.workdps(60):
            for i, r in enumerate(roots):
                assert (table.mirror[i] is None) == (r.imag == 0)
                assert (table.alpha[i][1] == 0) == (r.imag == 0)
                for enc, z in ((table.alpha[i], r), (table.inverse[i], 1 / r)):
                    assert abs(z * one - mpmath.mpc(enc[0], enc[1])) <= enc[2]
                if table.mirror[i] is not None:
                    j = table.mirror[i]
                    assert abs(roots[j] - mpmath.conj(r)) < mpmath.mpf(10) ** -40
            # the integer distance bounds enclose the exact distances
            for s in enumerate_primitive(ThueProblem(f, m, 20)):
                for i, r in enumerate(roots):
                    for enc, z, p, q in ((table.alpha[i], r, s.x, s.y),
                                         (table.inverse[i], 1 / r, s.y, s.x)):
                        if q != 0:
                            lo, hi = isolation.disk_distance(enc, p, q, one)
                            assert lo <= abs(q * z - p) * one <= hi
    # a real disk that meets 0, here [-1, 3]: no inverse enclosure at all
    straddle = isolation.ScaledRoots(
        [isolation.RootEnclosure(poly, 0, (1, 0, 2), 0)], 72)
    assert straddle.inverse == [None] and straddle.mirror == [None]


def test_galois_status(cubic_form, d12_form, cubic_aut, d12_aut):
    assert galois_status(cubic_form, root_orbit_partition(cubic_aut))[0] == "yes"
    assert galois_status(d12_form, root_orbit_partition(d12_aut))[0] == "yes"
    f = CUBE_FORM
    assert galois_status(f, root_orbit_partition(aut_prime(f)))[0] == "no"


def _galois(f: BinForm) -> tuple[str, str]:
    return galois_status(f, root_orbit_partition(aut_prime(f)))


@pytest.mark.parametrize("e", [300, 600])
def test_scaled_cyclic_quartic_is_never_called_non_galois(e):
    # x^4 - 4x^2 + 2 at y -> 2^e y still generates the cyclic quartic field
    # Q(sqrt(2 + sqrt 2)); the relation search fails within its budget at
    # these sizes, which certifies nothing
    f = BinForm((1, 0, -4 << 2 * e, 0, 2 << 4 * e))
    assert _galois(f)[0] != "no"


# F(x, 1) of Galois fields of degree 4 to 6, real and complex
GALOIS_BASES = [
    (1, 0, -4, 0, 2),             # cyclic, Q(sqrt(2 + sqrt 2))
    (1, 0, -10, 0, 1),            # Klein four, Q(sqrt 2, sqrt 3)
    (1, -1, -4, 4, 1),            # cyclic, 2 cos(2 pi / 15)
    (1, 1, 1, 1, 1),              # cyclotomic, 5th roots of unity
    (1, 0, 0, 0, 1),              # Klein four, 8th roots of unity
    (1, 1, -4, -3, 3, 1),         # cyclic, 2 cos(2 pi / 11)
    (1, 1, -5, -4, 6, 3, -1),     # cyclic, 2 cos(2 pi / 13)
    (1, 1, 1, 1, 1, 1, 1),        # cyclotomic, 7th roots of unity
    (1, 0, 0, 1, 0, 0, 1),        # cyclotomic, 9th roots of unity
]


def _sympy_is_galois(coeffs) -> bool:
    from sympy.polys.numberfields.galoisgroups import galois_group

    group, _ = galois_group(sympy.Poly(coeffs, sympy.Symbol("x")))
    return group.order() == len(coeffs) - 1


def _seeded_forms() -> list[tuple[BinForm, tuple]]:
    """(form, base) pairs: each Galois base and nine seeded irreducible forms
    of degree 4 to 6 (almost surely not Galois), moved by a seeded integer
    matrix of nonzero determinant and, for some, by y -> 2^e y.  The form
    generates the field of its base, whose group sympy computes."""
    rng = random.Random(22)
    bases = list(GALOIS_BASES)
    while len(bases) < len(GALOIS_BASES) + 9:
        c = (rng.choice((1, 2, 3)),) + tuple(rng.randint(-5, 5) for _ in range(rng.randint(4, 6)))
        if sympy.Poly(c, sympy.Symbol("x")).is_irreducible:
            bases.append(c)
    out = []
    for c in bases:
        m = IntMat2(*rng.choice(((1, 0, 1, 1), (1, 1, 0, 1), (2, 1, 1, 1), (1, -2, 1, 1),
                                 (3, 2, 1, 1))))
        form = form_action(BinForm(c), m)
        e = rng.choice((0, 0, 40, 300))
        out.append((form_action(form, IntMat2(1, 0, 0, 1 << e)), c))
    return out


def test_galois_verdicts_agree_with_sympy():
    # every "yes" and every "no" on the golden forms of degree <= 6 and on
    # the seeded forms agrees with sympy's galois_group; "unknown" is left
    # only to Galois fields, since a non-Galois one shows unequal factor
    # degrees at some small prime
    golden = json.loads((Path(__file__).parent / "golden" / "aut.json").read_text())
    cases = [(BinForm(e["coeffs"]), tuple(e["coeffs"])) for e in golden
             if len(e["coeffs"]) <= 7] + _seeded_forms()
    yes = 0
    for form, base in cases:
        status, reason = _galois(form)
        if _sympy_is_galois(base):
            assert status != "no", (base, reason)
            yes += status == "yes"
        else:
            assert status == "no", (base, reason)
    assert yes >= 11


def test_census_cubic(cubic_form):
    result = census(ThueProblem(cubic_form, 1, 100), Fraction(11, 4))
    rpt = result.report()
    assert rpt["gamma"] == 3 and rpt["autOrder"] == 6
    assert rpt["galois"]["status"] == "yes"
    assert rpt["theoremBound"] == 6 * 64
    assert rpt["largeSolutions"] == 0 and rpt["boundRespected"]
    assert rpt["gyoryBound"] == 75
    # two orbits of three solutions each fill the solution list
    assert sorted(map(len, rpt["orbits"])) == [3, 3]
    csv_text = result.to_csv()
    assert csv_text.splitlines()[0] == "x,y,F,H,rootIndex,side,orbitId"
    assert len(csv_text.splitlines()) == 7


def _report_bytes(result) -> str:
    return json.dumps(result.report(), sort_keys=True, default=str)


def test_census_report_does_not_depend_on_earlier_refinements(monkeypatch):
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    problem = ThueProblem(CUBE_FORM, 1, 100)
    before = _report_bytes(census(problem, Fraction(11, 4)))
    isolation.isolate_roots(IntPoly((-2, 0, 0, 1)), Fraction(1, 2 ** 400))
    assert _report_bytes(census(problem, Fraction(11, 4))) == before


def test_census_does_not_depend_on_stage_order(monkeypatch):
    # 3x^4 + 2x^3y - 8x^2y^2 + 2xy^3 + 3y^4, with C5 built on a cold cache,
    # before the census's group work and C10 rather than after them
    f = BinForm((3, 2, -8, 2, 3))
    problem, mu = ThueProblem(f, 3, 40), Fraction(7, 2)
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    in_order = census(problem, mu)
    c10 = lewis_mahler_c10(f)
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    early = c5(f, problem.m, mu, c10)
    monkeypatch.setattr(thue, "c5", lambda *args: early)
    # the whole result, so C5 to the last digit, not only the six digits
    # that the report prints
    assert census(problem, mu) == in_order


@pytest.mark.parametrize("coeffs", [(-1, 0, 3, 1), (2, 0, -6, -2)])
def test_census_builds_one_root_system_per_polynomial(coeffs, monkeypatch):
    # -x^3 + 3xy^2 + y^3 and 2x^3 - 6xy^2 - 2y^3 have the roots of
    # x^3 - 3x - 1, whatever the sign of c_d or the content: every stage
    # reads one root system for them, and one for the reciprocal's roots
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    built = []
    init = isolation._RootSystem.__init__

    def counted(self, p):
        built.append(p.coeffs)
        init(self, p)

    monkeypatch.setattr(isolation._RootSystem, "__init__", counted)
    census(ThueProblem(BinForm(coeffs), 3, 100), Fraction(11, 4))
    assert sorted(built) == [(-1, -3, 0, 1), (-1, 0, 3, 1)]


def test_census_orbit_closure(cubic_form, cubic_aut):
    sols = enumerate_primitive(ThueProblem(cubic_form, 1, 100))
    d = cubic_form.degree
    for s in sols:
        for el in cubic_aut.unimodular():
            xp, yp = el.matrix.apply(s.x, s.y)
            img = Solution.normalized(xp, yp, cubic_form.value(xp, yp), d)
            assert abs(img.value) == abs(s.value)
    # det-3-style scaling check is covered by verify_729 on the D12 family


def test_solution_orbits_reject_a_map_that_changes_F(monkeypatch):
    # the swap is no automorphism of x^3 - 2y^3: it takes (1, 0), where
    # F = 1, to (0, 1), where F = -2.  An image in the list is checked by
    # its listed value, any other image by evaluating F; +-I are skipped
    identity = IntMat2.identity()
    group = [AutElement(mat, 1, 1, (0, 1, 2)) for mat in (identity, -identity)]
    broken = EnhancedAut(CUBE_FORM, (*group, AutElement(IntMat2(0, 1, 1, 0), 1, -1, (0, 1, 2))),
                         "C_2", "C_2")
    evaluated = []
    value = BinForm.value
    monkeypatch.setattr(BinForm, "value",
                        lambda self, x, y: evaluated.append((x, y)) or value(self, x, y))
    one, two = Solution(1, 0, 1), Solution(0, 1, -2)
    assert thue._solution_orbits(CUBE_FORM, EnhancedAut(CUBE_FORM, tuple(group), "C_2", "C_2"),
                                 [one, two]) == ((0,), (1,))
    with pytest.raises(AssertionError, match="identity broken"):
        thue._solution_orbits(CUBE_FORM, broken, [one, two])
    assert evaluated == []
    with pytest.raises(AssertionError, match="identity broken"):
        thue._solution_orbits(CUBE_FORM, broken, [one])
    assert evaluated == [(0, 1)]


@pytest.mark.parametrize("mu", [Fraction(7), Fraction(12), Fraction(5)])
def test_census_checks_mu_before_any_stage(d12_form, mu, monkeypatch):
    # mu must lie in ((d/2)+1, d) = (7, 12): a bad one is reported before
    # the automorphism group (the first expensive stage) is built
    def unreachable(f):
        raise AssertionError("aut_prime ran before mu was checked")

    monkeypatch.setattr(thue, "aut_prime", unreachable)
    with pytest.raises(HypothesisError, match="outside"):
        census(ThueProblem(d12_form, 3, 40), mu)


def test_census_d12(d12_census_counted):
    result = d12_census_counted[0]
    rpt = result.report()
    assert rpt["gamma"] == 12 and rpt["autOrder"] == 24
    assert rpt["boundRespected"] and rpt["largeSolutions"] == 0
    assert rpt["galois"]["status"] == "yes"
    # the box solutions form one orbit: images of (1, 0)
    assert len(rpt["orbits"]) == 1
    assert {(s.x, s.y) for s in result.solutions} == {(1, 0), (0, 1), (1, 1)}


def test_census_d12_builds_each_per_form_step_once(d12_census_counted):
    # the D12 form is palindromic: the inverse roots are the roots, so one
    # C16 serves both sides of C5; the Mahler measure is taken once for C10
    # and once for C5; irreducibility's root-set test runs for the problem,
    # and aut_prime reads its verdict.  Every stage reads the first rung of
    # the root system's ladder alone: the swap (x, y) -> (y, x) is in the
    # group, so at (1, 1), where x/y = y/x, a root and the inverse of its
    # reciprocal partner tie exactly, and that tie is recognised there
    _, calls, widths = d12_census_counted
    assert calls == {"root_orbit_partition": 1, "c16": 1, "mahler": 2, "_root_set_test": 1}
    assert set(widths) == {isolation.TABLE_WIDTH}


def _is_rung(width: Fraction) -> bool:
    return any(width == isolation.TABLE_WIDTH / 10 ** (10 * k) for k in range(100))


def test_census_and_constants_ask_only_for_ladder_rungs(d12_census_counted, root_widths):
    # every width that the D12 census asks of a root system is a rung of its
    # ladder, and it asks for at most two; the README's ``constants arch``
    # command asks for rungs and, in power_rep's relation search, for
    # 2**-bits at the search's precisions 240 * 2**k bits
    widths = d12_census_counted[2]
    assert all(_is_rung(w) for w in widths) and len(set(widths)) <= 2
    quartic = "x^4 - x^3 - 4*x^2 + 4*x + 1"
    assert cli.main(["constants", "arch", f"{quartic}@root~=1.827", f"{quartic}@root~=1.338",
                     "--mu", "7/2", "--c0", "1"]) == 0
    search = {Fraction(1, 2 ** (240 << k)) for k in range(4)}
    assert root_widths and all(_is_rung(w) or w in search for w in root_widths), root_widths


def test_census_d12_report_emits_in_full(d12_census_counted):
    # C5 has millions of bits: str() of the raw Fraction raises ValueError
    # (the 4300-digit limit), which the CLI would report as exit 2
    result = d12_census_counted[0]
    with pytest.raises(ValueError):
        str(result.c5_value)
    rpt = result.report()
    text = json.dumps(rpt, sort_keys=True, default=str)
    assert json.loads(text)["C5"]["rounding"] == "up"

    def leaves(x):
        if isinstance(x, dict):
            for k, v in x.items():
                yield k
                yield from leaves(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                yield from leaves(v)
        else:
            yield x

    assert not any(isinstance(v, Fraction) for v in leaves(rpt))


def test_census_large_count_at_the_c5_boundary(cubic_form, monkeypatch):
    # a height equal to ceil(C5) is large, for an integer C5 and for one
    # just below it; a C5 just above it leaves that height small
    problem = ThueProblem(cubic_form, 1, 100)
    heights = [s.height for s in enumerate_primitive(problem)]
    top = max(heights)
    n_top = heights.count(top)
    for value, expected in ((Fraction(top), n_top), (Fraction(2 * top - 1, 2), n_top),
                            (Fraction(2 * top + 1, 2), 0)):
        monkeypatch.setattr(thue, "c5", lambda f, m, mu, c10, v=value: (v, {}))
        rpt = census(problem, Fraction(11, 4)).report()
        assert rpt["largeSolutions"] == expected, value


def _iroot(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 1: Newton's iteration from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _exact_pow_up(base: Fraction, exp: Fraction) -> Fraction:
    """Upper bound on base**exp for base > 0 and exp >= 0 on exact rationals:
    the integer power base**p, then its q-th root, scaled by 2^100 and
    rounded up; a route of its own, independent of gapkit's monomials."""
    p, q = Fraction(exp).numerator, Fraction(exp).denominator
    x = Fraction(base) ** p
    if q == 1:
        return x
    scale = 1 << 100
    m = x.numerator * x.denominator ** (q - 1) * scale ** q
    r = _iroot(m, q)
    return Fraction(r + (r ** q != m), x.denominator * scale)


def _pairwise_closed_constants(alphas, mu, c0):
    """Reference: the closed-form Archimedean gap constants of every ordered
    pair of distinct conjugates, built pair by pair as C5 once built them
    (the Mahler measure taken afresh for each conjugate, C2 rounded twice),
    with every power on exact rationals (``_exact_pow_up``)."""
    d = alphas[0].degree
    a0, b0 = alphas[0], alphas[1]
    c12v = c12_closed_form(a0, b0, theta_upper_bound(a0) * b0.lead)
    pow_c12_closing = _exact_pow_up(c12v, Fraction(d * d + 3 * d, 2) * mu + 2)
    shared_closing = _exact_pow_up(Fraction(2), Fraction(d * d, 4) * mu) \
        * _exact_pow_up(Fraction(d + 2, 2), Fraction(3 * d * d + 4 * d, 8) * mu) \
        * c0 * pow_c12_closing
    out = []
    for a in alphas:
        c13v = c13_formula(a, c12v, a.mahler_interval().hi)
        c6v = liouville_c6(a)
        max1_up = max(Fraction(1), a.abs_interval().hi)
        b2 = _exact_pow_up(Fraction(2), Fraction(d + 6, 2)) * Fraction(d + 2, 2) \
            * c0 * c12v ** 2 / c13v * max1_up ** d
        branches_a = [_exact_pow_up(c0, 1 / mu), _exact_pow_up(b2, 1 / mu),
                      _exact_pow_up(shared_closing / (c6v * c13v) * max1_up ** d,
                                    1 / (2 * mu - d))]
        c_small = tidy_up(max(branches_a))
        c2_base = tidy_up(c0 * _exact_pow_up(Fraction(2), Fraction(d + 2, 2))
                          * c12v * _exact_pow_up(max1_up, Fraction(d, 2)))
        for b in alphas:
            if a.index == b.index:
                continue
            c2 = tidy_up(c2_base * (2 + b.abs_interval().hi))
            out.append(GapConstants("archimedean", c_small, c2, mu, c0, d))
    return out


def test_c5_palindromic_reuse_matches_inverse_roots():
    for coeffs, mu, palindromic in (
            ((3, 2, -8, 2, 3), Fraction(7, 2), True),   # 3x^4 + 2x^3y - 8x^2y^2 + 2xy^3 + 3y^4
            ((1, 0, -3, -1), Fraction(11, 4), False)):  # x^3 - 3xy^2 - y^3
        f = BinForm(coeffs)
        c10 = lewis_mahler_c10(f)
        value, prov = c5(f, 1, mu, c10)
        poly = normalize_minimal_poly(f.dehomogenize())
        recip = normalize_minimal_poly(poly.reciprocal())
        assert (recip.coeffs == poly.coeffs) == palindromic
        explicit = {}
        for side, p in (("alpha", poly), ("alpha_inv", recip)):
            conj = [AlgNum(p, i) for i in range(p.degree)]
            pairwise = _pairwise_closed_constants(conj, mu, Fraction(1))
            explicit[side] = c16(conj, mu, 1, max(g.c_small for g in pairwise),
                                 max(g.c_big for g in pairwise))
        for side, (c16v, branches) in explicit.items():
            assert prov[f"C16({side})"] == compact_str(c16v, True)
            assert prov[f"branches({side})"] == branches
        # the Lewis-Mahler branch, about (C10 m)^(1/(d - mu)), is far below C16
        c16_max = max(explicit["alpha"][0], explicit["alpha_inv"][0])
        assert _exact_pow_up(c10, 1 / (f.degree - mu)) < c16_max
        assert value == tidy_up(c16_max)


def _spy(monkeypatch, module, name, log):
    fn = getattr(module, name)

    def wrapper(*args):
        out = fn(*args)
        log.append((args, out))
        return out
    monkeypatch.setattr(module, name, wrapper)


def test_d12_c5_makes_o_d_rounded_powers(d12_form, monkeypatch):
    # all pairs took 132 archimedean_c2 calls, 66 powers in c11 and 912
    # rounded powers in all; the monotone maxima and the folded C1 prefix
    # leave two, one and at most 100
    c10 = lewis_mahler_c10(d12_form)
    logs = {"c2": [], "c16": [], "c11_pow": [], "dyadic_pow": []}
    _spy(monkeypatch, thue, "archimedean_c2", logs["c2"])
    _spy(monkeypatch, thue, "_conjugate_c16", logs["c16"])
    _spy(monkeypatch, rounding, "_dyadic_pow_up", logs["dyadic_pow"])
    c11_calls = []

    def c11_spy(*args):
        before = len(logs["c11_pow"])
        out = c11(*args)
        c11_calls.append(len(logs["c11_pow"]) - before)
        return out
    monkeypatch.setattr(gap, "c11", c11_spy)
    _spy(monkeypatch, gap, "pow_up", logs["c11_pow"])
    c5(d12_form, 3, Fraction(38, 4), c10)
    assert len(logs["c16"]) == 1                      # D12 is palindromic
    assert len(logs["c2"]) <= 2 * len(logs["c16"])
    assert c11_calls == [1]
    assert len(logs["dyadic_pow"]) <= 100


GOLDEN_AUT = json.loads((Path(__file__).parent / "golden" / "aut.json").read_text())


def _all_pairs_c11(alphas, mu, c0):
    """c11 as the maximum of one rounded power per pair, on the rungs of the
    root systems' ladders."""
    width = isolation.TABLE_WIDTH
    for _ in range(9):
        encl = [isolation.RootEnclosure(a.minpoly, a.index, t.alpha[a.index], t.bits)
                for a in alphas for t in [isolation.root_system(a.minpoly).scaled(width)]]
        dists = [encl[i].distance_interval(encl[j]).lo
                 for i in range(len(alphas)) for j in range(i + 1, len(alphas))]
        if min(dists) > 0:
            return tidy_up(max(pow_up(2 * c0 / dist, 1 / mu) for dist in dists))
        width /= 10 ** 10
    raise AssertionError("conjugates not separated")


def _unfolded_floor_branches(d, mu, c0, wronskian_floor, closing):
    """C1's three branches of one number, each factor list folded whole."""
    closing = [(2, Fraction(d * d, 4) * mu),
               (Fraction(d + 2, 2), Fraction(3 * d * d + 4 * d, 8) * mu), *closing]
    return (("C0^(1/mu)", monomial_up([(c0, 1 / mu)])),
            ("wronskian-floor", monomial_up([(b, x / mu) for b, x in wronskian_floor])),
            ("liouville-closing", monomial_up([(b, x / (2 * mu - d)) for b, x in closing])))


@pytest.mark.parametrize("coeffs", [e["coeffs"] for e in GOLDEN_AUT],
                         ids=[",".join(map(str, e["coeffs"])) for e in GOLDEN_AUT])
def test_conjugate_c16_reductions_equal_the_all_pairs_loops(coeffs, monkeypatch):
    # C_big from at most two pairs, c11 from the least distance and C1 from
    # the folded prefix are each exactly the all-pairs value
    f = BinForm(coeffs)
    d = f.degree
    mu = Fraction(3 * d + 2, 4)
    poly = normalize_minimal_poly(f.dehomogenize())
    for p in (poly, normalize_minimal_poly(poly.reciprocal())):
        floors, c16s = [], []
        _spy(monkeypatch, thue, "archimedean_floor_branches", floors)
        _spy(monkeypatch, thue, "c16", c16s)
        thue._conjugate_c16(p, mu)
        monkeypatch.undo()
        [((_, _, c0, c12v, roots), branches)] = floors
        [((alphas, _, _, c_small, c_big, _), _)] = c16s
        unfolded = [_unfolded_floor_branches(
            d, mu, c0,
            [(2, Fraction(d + 6, 2)), (Fraction(d + 2, 2), 1), (c0, 1), (c12v, 2),
             (1 / c13v, 1), (max1_up, d)],
            [(c0, 1), (c12v, Fraction(d * d + 3 * d, 2) * mu + 2), (max1_up, d),
             (1 / c6v, 1), (1 / c13v, 1)])
            for c13v, c6v, max1_up in roots]
        assert branches == unfolded
        assert c_small == max(tidy_up(max(b for _, b in br)) for br in unfolded)
        abs_up = [a.abs_interval().hi for a in alphas]
        assert c_big == max(archimedean_c2(d, c0, c12v, max(Fraction(1), abs_up[i]), abs_up[j])
                            for i in range(d) for j in range(d) if i != j)
        assert c11(alphas, mu, c0) == _all_pairs_c11(alphas, mu, c0)


def test_convergents_cbrt2(cbrt2):
    cv = convergents(cbrt2, 8)
    assert [(p.x, p.y) for p in cv[:4]] == [(1, 1), (4, 3), (5, 4), (29, 23)]
    for p in cv:
        q = arch_quality(cbrt2, p, Fraction(1, 10 ** 30))
        assert interval_vs_power(q, Fraction(p.y), Fraction(-2)) == -1


def test_convergents_need_real():
    from gapkit.algnum import AlgNum

    complex_alg = AlgNum.make(IntPoly((1, 0, 1)), 0)
    with pytest.raises(ValueError):
        convergents(complex_alg, 5)


# -- the hybrid enumeration: window search to H0, convergents above ---------------

def _hybrid(f: BinForm, m: int, bound: int):
    """(solution pairs, H0); checks each route against the height split."""
    h0 = legendre_height(f, m, lewis_mahler_c10(f))
    sols = enumerate_primitive(ThueProblem(f, m, bound), h0)
    for s in sols:
        assert s.route == ("convergent" if s.height > h0 else "window"), (f, s, h0)
    return [(s.x, s.y, s.value) for s in sols], h0


def test_hybrid_matches_window_search(cubic_form, d12_form):
    cases = [(CUBE_FORM, 1, 10 ** 4), (CUBE_FORM, 6, 3000),
             (cubic_form, 1, 10 ** 4), (cubic_form, 5, 3000),
             (d12_form, 3, 400)] + [(f, m, 3000) for f, m in ABOVE_H0]
    convergent_hits = 0
    for f, m, bound in cases:
        got, h0 = _hybrid(f, m, bound)
        assert h0 < bound, (f, m)   # the convergent search is exercised
        want = [(s.x, s.y, s.value) for s in window_search(f, m, bound)]
        assert got == want, (f, m, bound)
        convergent_hits += sum(max(abs(x), abs(y)) > h0 for x, y, _ in got)
    assert convergent_hits >= len(ABOVE_H0)


def test_hybrid_matches_naive(cubic_form, d12_form):
    cases = [(CUBE_FORM, 1, 60), (CUBE_FORM, 6, 60), (cubic_form, 1, 60),
             (cubic_form, 5, 60), (d12_form, 3, 30)] \
        + [(f, m, 60) for f, m in ABOVE_H0]
    for f, m, bound in cases:
        got, _ = _hybrid(f, m, bound)
        assert {(x, y) for x, y, _ in got} == naive_enumeration(f, m, bound)


@given(st.integers(3, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_hybrid_matches_naive_random_forms(d, data):
    coeffs = [data.draw(st.integers(1, 3))] \
        + [data.draw(st.integers(-4, 4)) for _ in range(d)]
    assume(coeffs[-1] != 0)
    f = BinForm(tuple(coeffs))
    assume(is_irreducible(f.dehomogenize()))
    m = data.draw(st.integers(1, 8))
    got, _ = _hybrid(f, m, 25)
    assert {(x, y) for x, y, _ in got} == naive_enumeration(f, m, 25)


def test_huge_box_equals_small_box(cubic_form):
    small, h0 = _hybrid(cubic_form, 1, 10 ** 4)
    huge, h0_huge = _hybrid(cubic_form, 1, 10 ** 30)
    assert h0 == h0_huge < 10 ** 4
    assert huge == small


def test_legendre_height_at_an_integer_threshold():
    # d = 3: H**(d-2) > 2 C10 m = 10 holds exactly for H > 10
    assert legendre_height(CUBE_FORM, 1, Fraction(5)) == 10


def test_legendre_height_against_mpmath(cubic_form, d12_form):
    """H0 clears both thresholds, with iota from mpmath roots, by at most the
    rounding: H0 = max(floor of each) up to one unit."""
    import mpmath

    for f, m in [(CUBE_FORM, 1), (cubic_form, 5), (d12_form, 3)] + list(ABOVE_H0):
        d = f.degree
        c10 = lewis_mahler_c10(f)
        h0 = legendre_height(f, m, c10)
        with mpmath.workdps(50):
            roots = mpmath.polyroots(list(f.coeffs), maxsteps=200, extraprec=200)
            ims = [abs(mpmath.im(r)) for r in roots] + [abs(mpmath.im(1 / r)) for r in roots]
            iota = min((t for t in ims if t > mpmath.mpf(10) ** -30), default=None)
            c = mpmath.mpf(c10.numerator) / c10.denominator * m
            want = (2 * c) ** (mpmath.mpf(1) / (d - 2))
            if iota is not None:
                want = max(want, (c / iota) ** (mpmath.mpf(1) / d))
        assert want < h0 + 1 and h0 <= max(1, int(mpmath.floor(want))) + 1, (f, m, h0, want)


def test_convergents_to_denominator(cbrt2):
    by_count = convergents(cbrt2, 30)
    by_den = convergents(cbrt2, max_den=10 ** 6)
    assert by_den == [p for p in by_count if p.y <= 10 ** 6]
    assert by_count[len(by_den)].y > 10 ** 6
    # 1/cbrt2 = [0; 1, 3, 1, 5, ...]: the reciprocals, after 0/1
    inverse = convergents(cbrt2, max_den=10 ** 6, inverse=True)
    assert [(p.x, p.y) for p in inverse] == \
        [(0, 1)] + [(p.y, p.x) for p in by_count if p.x <= 10 ** 6]
    with pytest.raises(ValueError):
        convergents(cbrt2)


def test_census_records_h0_and_routes(cubic_form):
    rpt = census(ThueProblem(cubic_form, 1, 10 ** 30), Fraction(11, 4)).report()
    assert rpt["provenance"]["H0"] == 7
    assert rpt["provenance"]["routes"] == ["window"] * 6
    assert len(rpt["solutions"]) == 6 and rpt["boundRespected"]
