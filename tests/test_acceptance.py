"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

from gapkit.algnum import AlgNum, c8, liouville_c6, power_table
from gapkit.autgroup import aut_prime, verify_729
from gapkit.binforms import BinForm, IntMat2, discriminant, form_action
from gapkit.gap import (f_floor, count_bound, resultant_gcd_bound,
                        thue_siegel_params, two_forms_constant, vanishing_gap)
from gapkit.intpoly import IntPoly, poly_gcd_q
from gapkit.minpair import find_pair, verify_pair
from gapkit.padic import hensel_root, liouville_c7, padic_abs_linear
from gapkit.sweeps import dichotomy_sweep
from gapkit.thue import (ThueProblem, census, enumerate_primitive,
                         lewis_mahler_c10)
from tests.conftest import CUBIC, QUARTIC
from tests.lewis_mahler import lewis_mahler_check


def _report(n: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {n}] {state} :: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n}: {label} {detail}"


def test_criterion_1_minimal_pair_example(alpha15, beta15):
    t0 = time.time()
    pair = find_pair(alpha15, beta15, mode="exact")
    ok = pair.r == 2 and pair.height_bound <= 2
    for p, q in ((IntPoly((2, 0, -1)), IntPoly((1,))),
                 (IntPoly((-1, 2, -1)), IntPoly((-1, -1, 1)))):
        rpt = verify_pair(alpha15, beta15, p, q, rep=pair.rep, reference=pair)
        ok = ok and rpt["ok"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(1, "quartic minimal pair: r = 2, height <= 2, both classical pairs verify",
            ok, f"{elapsed:.2f}s")


def test_criterion_2_counting_arithmetic():
    f3 = f_floor(3)
    f14 = f_floor(10 ** 14)
    ok = (f3 == 64 and 24 * f3 == 1536 and f14 == 3 and 24 * f14 == 72
          and 2 * count_bound(3, Fraction(11, 4), 12) == 1536)
    _report(2, "counting arithmetic: floor f(3) = 64 -> 1536, floor f(1e14) = 3 -> 72", ok)


def test_criterion_3_d12_identities(d12_form):
    rpt = verify_729(d12_form)
    ok = rpt["ok"] and len(rpt["unimodular"]) == 12 and len(rpt["det3"]) == 12
    _report(3, "all 24 dihedral-family identities exact for (a, b) = (3, 1)", ok)


def test_criterion_4_group_computation(d12_aut):
    have = {e.matrix.entries() for e in d12_aut.elements}
    ok = (d12_aut.order == 24 and d12_aut.structure == "D_12"
          and (0, 1, 1, 0) in have and (1, 1, -1, 2) in have)
    cube = BinForm((1, 0, 0, -2))
    aut2 = aut_prime(cube)
    got = {e.matrix.entries() for e in aut2.elements}
    ok = ok and got == {(1, 0, 0, 1), (-1, 0, 0, -1)}
    # brute-force oracle over entries <= 10
    from gapkit.autgroup import membership_scale
    from itertools import product

    oracle = set()
    rng10 = range(-10, 11)
    for s, u, t, v in product(rng10, rng10, rng10, rng10):
        m = IntMat2(s, u, t, v)
        if m.det != 0 and m.content() == 1 and membership_scale(cube, m):
            oracle.add((s, u, t, v))
    ok = ok and oracle == got
    _report(4, "Aut' computation: D12 instance order 24 with generators; x^3-2y^3 = {+-I} = oracle", ok)


def test_criterion_5_dichotomy_sweep():
    t0 = time.time()
    rpt = dichotomy_sweep(min_pairs=200)
    elapsed = time.time() - t0
    ok = (rpt["zero_violations"] and rpt["enough_pairs"]
          and rpt["abstention_rate"] < 0.05 and elapsed < 120.0)
    detail = (f"{rpt['totals']['checked']} pairs, "
              f"{rpt['totals']['violations']} violations, "
              f"abstention {rpt['abstention_rate']:.1%}, {elapsed:.1f}s")
    _report(5, "dichotomy sweep over certified pairs (both metrics)", ok, detail)


def test_criterion_6_property_suites(alpha_cubic, cbrt2):
    failures = []
    counts = {}

    # resultant-gcd bound: g | rho and rho <= (r+1)^r maxH^(2r)
    rng = random.Random(101)
    n = 0
    while n < 200:
        p = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))])
        q = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, p.degree + 1 if p.degree >= 1 else 1))])
        if p.degree < 1 or q.is_zero or p.degree < q.degree \
                or poly_gcd_q(p, q).degree != 0:
            continue
        r = p.degree
        rho = resultant_gcd_bound(p, q)
        if not 1 <= rho <= (r + 1) ** r * max(p.height(), q.height()) ** (2 * r):
            failures.append(("lemma42-bound", p, q))
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if gcd(abs(a), abs(b)) != 1:
            continue
        g = gcd(abs(p.eval_pair(a, b, r)), abs(q.eval_pair(a, b, r)))
        if g and rho % g != 0:
            failures.append(("lemma42-div", p, q, a, b))
        n += 1
    counts["resultant-gcd"] = n

    # Cor 4.4 lower bound through the two-forms constant
    rng = random.Random(103)
    n = 0
    while n < 200:
        p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 4))])
        q = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, p.degree + 1 if p.degree >= 1 else 1))])
        if p.degree < 1 or q.is_zero or p.degree < q.degree \
                or poly_gcd_q(p, q).degree != 0:
            continue
        r = p.degree
        c = two_forms_constant(p, q)
        a, b = rng.randint(-25, 25), rng.randint(-25, 25)
        if (a, b) == (0, 0):
            continue
        lhs = max(abs(p.eval_pair(a, b, r)), abs(q.eval_pair(a, b, r)))
        if Fraction(lhs) < c ** r * Fraction(max(abs(a), abs(b))) ** r:
            failures.append(("cor44", p, q, a, b))
        n += 1
    counts["two-forms-floor"] = n

    # vanishing gap: exact image and certified height floor
    rng = random.Random(107)
    n = 0
    while n < 200:
        p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 4))])
        q = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, p.degree + 1 if p.degree >= 1 else 1))])
        if p.degree < 1 or q.is_zero or p.degree < q.degree \
                or poly_gcd_q(p, q).degree != 0:
            continue
        x1, y1 = rng.randint(-30, 30), rng.randint(1, 30)
        if gcd(abs(x1), y1) != 1:
            continue
        r = max(p.degree, q.degree)
        if q.eval_pair(x1, y1, r) == 0:
            continue
        x2, y2, bound = vanishing_gap(p, q, x1, y1)
        if p.eval_pair(x1, y1, r) * y2 + x2 * q.eval_pair(x1, y1, r) != 0:
            failures.append(("prop41-image", p, q, x1, y1))
        if Fraction(max(abs(x2), abs(y2))) < bound:
            failures.append(("prop41-bound", p, q, x1, y1))
        n += 1
    counts["vanishing-gap"] = n

    # power-table integrality and size up to r = 3d
    n = 0
    for poly in (QUARTIC, CUBIC, IntPoly((-3, -3, 0, 2)), IntPoly((-2, 0, 0, 1)),
                 IntPoly((1, 1, 1, 1, 1)), IntPoly((-1, -1, 0, 1))):
        alg = AlgNum.make(poly, 0)
        d, ca, bound = alg.degree, alg.lead, c8(alg)
        for r in range(0, 3 * d + 1):
            row = power_table(alg, r)
            e = max(0, r - d + 1)
            for a in row:
                n += 1
                if (a * ca ** e).denominator != 1:
                    failures.append(("lemma24-int", poly, r))
                if e > 0 and abs(a) > bound ** e:
                    failures.append(("lemma24-size", poly, r))
    counts["power-table"] = n

    # Liouville C6 brute force over H <= 200
    c6 = liouville_c6(alpha_cubic)
    enc = alpha_cubic.enclosure(Fraction(1, 10 ** 40)).interval
    d = alpha_cubic.degree
    n = 0
    for y in range(1, 201):
        for x in range(-200, 201):
            if gcd(abs(x), abs(y)) != 1:
                continue
            n += 1
            dist_lo = max(enc.lo - Fraction(x, y), Fraction(x, y) - enc.hi)
            if dist_lo * Fraction(max(abs(x), abs(y))) ** d < c6:
                failures.append(("liouville-c6", x, y))
    counts["liouville-C6"] = n

    # p-adic Liouville C7 brute force over H <= 200
    xi = hensel_root(CUBIC, 17, 3)
    c7 = liouville_c7(xi)
    n = 0
    for y in range(0, 201):
        for x in range(-200, 201):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            n += 1
            ab = padic_abs_linear(xi, x, y, 40)
            if ab.value * Fraction(max(abs(x), abs(y))) ** 3 < c7:
                failures.append(("liouville-c7", x, y))
    counts["liouville-C7"] = n

    # root-assignment inequality on every enumerated Thue solution
    n = 0
    for f, m in ((BinForm((1, 0, 0, -2)), 2), (BinForm((1, 0, -3, -1)), 3)):
        c10 = lewis_mahler_c10(f)
        for s in enumerate_primitive(ThueProblem(f, m, 60)):
            n += 1
            if not lewis_mahler_check(f, s, c10):
                failures.append(("lewis-mahler", f, s))
    counts["root-assignment"] = n

    # discriminant scaling law
    rng = random.Random(109)
    n = 0
    while n < 200:
        dd = rng.randint(2, 5)
        coeffs = [rng.randint(-6, 6) for _ in range(dd + 1)]
        if all(c == 0 for c in coeffs):
            continue
        f = BinForm(coeffs)
        m = IntMat2(*[rng.randint(-4, 4) for _ in range(4)])
        if m.det == 0:
            continue
        try:
            base = discriminant(f)
        except ValueError:
            continue
        if discriminant(form_action(f, m)) != m.det ** (dd * (dd - 1)) * base:
            failures.append(("disc-scaling", f, m))
        n += 1
    counts["disc-scaling"] = n

    ok = not failures and all(v >= 200 for k, v in counts.items()
                              if k not in ("root-assignment",))
    detail = ", ".join(f"{k}: {v}" for k, v in counts.items())
    if failures:
        detail += f"; failures: {failures[:3]}"
    _report(6, "property suites (zero failures)", ok, detail)


def test_criterion_7_thue_siegel_range():
    ok = True
    for d in range(3, 1001):
        try:
            thue_siegel_params(d)
        except AssertionError:
            ok = False
            break
    _report(7, "Thue-Siegel parameters certified for 3 <= d <= 1000", ok)


def test_criterion_8_padic_stack():
    xi = hensel_root(CUBIC, 17, 3)
    ok = xi.lift(2) == 207
    ab = padic_abs_linear(xi, 3, 1, 2)
    ok = ok and ab.exact and ab.value == Fraction(1, 17)
    c7 = liouville_c7(xi)
    for y in range(0, 51):
        for x in range(-50, 51):
            if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
                continue
            q = padic_abs_linear(xi, x, y, 30)
            if q.value * Fraction(max(abs(x), abs(y))) ** 3 < c7:
                ok = False
    _report(8, "p-adic stack: lift 207 mod 289, |alpha - 3|_17 = 1/17, C7 sweep H <= 50", ok)


def test_criterion_9_census_soundness(cubic_form, d12_census_counted):
    ok = True
    details = []
    # the D12 census is the session's one run of
    # census(ThueProblem(d12_form, 3, 40), 38/4)
    for result in (census(ThueProblem(cubic_form, 1, 100), Fraction(11, 4)),
                   census(ThueProblem(cubic_form, 3, 60), Fraction(11, 4)),
                   d12_census_counted[0]):
        rpt = result.report()
        ok = ok and rpt["boundRespected"]
        ok = ok and rpt["largeSolutions"] <= rpt["theoremBound"]
        # orbit grouping covers every solution exactly once
        seen = sorted(i for o in rpt["orbits"] for i in o)
        ok = ok and seen == list(range(len(rpt["solutions"])))
        details.append(f"{rpt['largeSolutions']}/{rpt['theoremBound']}")
    _report(9, "census soundness: large-solution count within the theorem bound",
            ok, "large/bound = " + ", ".join(details))
