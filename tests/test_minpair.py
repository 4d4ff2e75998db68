import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from gapkit import linalg
from gapkit.algnum import AlgNum, PowerBasisRep, power_rep
from gapkit.intpoly import IntPoly
from gapkit.linalg import kernel_vectors_up_to
from gapkit.minpair import (MinimalPair, PairError, build_system, c12,
                            c12_closed_form, c13, c13_formula, c14, find_pair,
                            verify_pair, wronskian)
from gapkit.padic import hensel_root
from tests.conftest import CUBIC, QUARTIC


def rank(system) -> int:
    return sympy.Matrix([list(r) for r in system.rows]).rank()


P1, Q1 = IntPoly((2, 0, -1)), IntPoly((1,))            # -x^2 + 2, 1
P2, Q2 = IntPoly((-1, 2, -1)), IntPoly((-1, -1, 1))    # -x^2+2x-1, x^2-x-1


def test_build_system_kernel(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    system = build_system(alpha15, rep, 2)
    assert rank(system) == 4
    assert system.ncols - rank(system) == 2    # 2s + 2 - d with full rank
    basis = system.integer_kernel_basis()
    # the classical first pair (P1, Q1) = (-x^2 + 2, 1) encodes to a kernel vector
    target = (2, 0, -1, 1, 0, 0)
    vectors = kernel_vectors_up_to(basis, 2)
    assert target in vectors or tuple(-c for c in target) in vectors
    # degenerate beta = alpha at s = 1: kernel holds (P, Q) = (-x, 1)
    rep_id = power_rep(alpha15, alpha15)
    sys1 = build_system(alpha15, rep_id, 1)
    vecs = kernel_vectors_up_to(sys1.integer_kernel_basis(), 1)
    assert (0, -1, 1, 0) in vecs or (0, 1, -1, 0) in vecs


def test_find_pair_paper_example(alpha15, beta15):
    pair = find_pair(alpha15, beta15)
    assert pair.r == 2
    assert pair.height_bound <= 2
    assert pair.minimality == "exact"
    # exact vanishing, coprimality come from construction; cross-check
    rpt = verify_pair(alpha15, beta15, pair.p, pair.q, rep=pair.rep,
                      reference=pair)
    assert rpt["ok"]


def test_verify_both_paper_pairs(alpha15, beta15):
    pair = find_pair(alpha15, beta15)
    for p, q in ((P1, Q1), (P2, Q2)):
        rpt = verify_pair(alpha15, beta15, p, q, rep=pair.rep, reference=pair)
        assert rpt["ok"], rpt


def test_verify_pair_rejects_nonvanishing(alpha15, beta15):
    rpt = verify_pair(alpha15, beta15, IntPoly((1,)), IntPoly((1,)))
    assert not rpt["checks"]["vanishing"] and not rpt["ok"]


def _mobius_beta_of_alpha15():
    # beta = (2 alpha + 1)/(alpha + 1) for alpha = 2cos(2pi/15): degree 4,
    # r(alpha, beta) = 1 by construction
    import sympy

    x = sympy.Symbol("x")
    a = 2 * sympy.cos(2 * sympy.pi / 15)
    mp = sympy.minimal_polynomial((2 * a + 1) / (a + 1), x)
    coeffs = [int(mp.coeff(x, k)) for k in range(sympy.degree(mp, x) + 1)]
    approx = Fraction(2 * 1827 + 1000, 1827 + 1000)
    return AlgNum.near(IntPoly(coeffs), approx)


def test_part3_divisibility_extraction(alpha15):
    beta = _mobius_beta_of_alpha15()
    pair = find_pair(alpha15, beta)                  # r = 1, so d-1-r = 2
    assert pair.r == 1
    g = IntPoly((1, 1))                              # G = x + 1
    rpt = verify_pair(alpha15, beta, g * pair.p, g * pair.q,
                      rep=pair.rep, reference=pair)
    part3 = rpt["checks"]["part3"]
    assert part3["applicable"] and part3["cross_vanishes"] and part3["factors"]
    assert part3["G"] == "x + 1"


def test_cubic_forced_r1(alpha_cubic, beta_cubic):
    pair = find_pair(alpha_cubic, beta_cubic)
    assert pair.r == 1                                # d = 3 forces r <= 1
    # the relation is the Moebius one: beta * alpha = alpha + 1
    assert (pair.p, pair.q) in (((IntPoly((-1, -1)), IntPoly((0, 1)))),
                                ((IntPoly((1, 1)), IntPoly((0, -1))))) or \
        pair.height_bound == 1


def test_mobius_constructed_pair(alpha15):
    beta = _mobius_beta_of_alpha15()
    pair = find_pair(alpha15, beta)
    assert pair.r == 1
    assert pair.height_bound <= 2


def test_rejects_rational_beta(alpha15):
    with pytest.raises((PairError, ValueError)):
        rational = AlgNum.make(IntPoly((-3, 1)), 0, check_irreducible=False)
        find_pair(alpha15, rational)


def test_wronskian_examples():
    assert wronskian(P1, Q1) == IntPoly((0, 2))        # 2x
    assert wronskian(IntPoly((0, 1)), IntPoly((1,))) == IntPoly((-1,))
    assert wronskian(P1, P1).is_zero


def test_wronskian_height_chain(alpha15, beta15):
    pair = find_pair(alpha15, beta15)
    w = pair.wronskian()
    r = pair.r
    assert not w.is_zero
    assert w.degree < alpha15.degree
    assert w.height() <= 2 * r * r * pair.p.height() * pair.q.height() \
        or w.height() <= 2 * r * r * pair.height_bound ** 2


def test_r_minimality_exact(alpha15, beta15):
    # at r' = 1 the degree-restricted kernel must be zero for the r = 2 pair
    rep = power_rep(alpha15, beta15)
    sys1 = build_system(alpha15, rep, 1)
    assert sys1.integer_kernel_basis() == []
    assert sys1.ncols - rank(sys1) == 0


def test_c12_bounds(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    pair = find_pair(alpha15, beta15, rep=rep)
    v = c12(alpha15, beta15, rep, pair)
    assert v == 2                       # tautological branch wins: H = 2
    closed = c12_closed_form(alpha15, beta15, rep.denominator)
    assert closed >= v


def test_c12_closed_form_dominates_random_pairs():
    algs = [AlgNum.make(QUARTIC, i) for i in range(4)]
    reals = [a for a in algs if a.is_real]
    for a in reals:
        for b in reals:
            if a.index == b.index:
                continue
            rep = power_rep(a, b)
            pair = find_pair(a, b, rep=rep)
            closed = c12_closed_form(a, b, rep.denominator)
            assert closed >= pair.height_bound


def test_c13_enclosure_beats_formula(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    pair = find_pair(alpha15, beta15, rep=rep)
    # with the classical first pair: |W(alpha)| = |2 alpha| ~ 3.654
    from gapkit.minpair import MinimalPair

    pair1 = MinimalPair(alpha15, beta15, rep, P1, Q1, 2, "exact")
    v = c13(alpha15, pair1)
    assert Fraction(36, 10) < v < Fraction(366, 100)
    from gapkit.minpair import c13_formula

    assert c13_formula(alpha15, Fraction(pair1.height_bound),
                       alpha15.mahler_interval().hi) < v  # enclosure branch won


def test_c13_takes_the_next_rung_when_the_first_keeps_w_at_0(alpha15, beta15, ladder_widths,
                                                            coarsen_first_rung):
    # the first rung's disks coarsened to whole units: alpha ~ 1.827 is read
    # as [0, 4], where W = 2x may vanish; the enclosure branch is read on
    # the second rung, and still beats the closed bound
    second = ladder_widths(alpha15.minpoly)[1]
    rep = power_rep(alpha15, beta15)
    pair1 = MinimalPair(alpha15, beta15, rep, P1, Q1, 2, "exact")
    asked = coarsen_first_rung()
    v = c13(alpha15, pair1)
    assert second in asked
    assert Fraction(36, 10) < v < Fraction(366, 100)
    assert c13_formula(alpha15, Fraction(pair1.height_bound), alpha15.mahler_interval().hi) < v


def test_kernel_enumeration_ranges_come_from_the_first_independent_rows(monkeypatch):
    # |c_i| <= bound sum_j |inv_ij|, inv the inverse (sympy) of the k x k
    # matrix of the first k independent coordinate rows, truncated
    rng = random.Random(3)
    for _ in range(40):
        cols = rng.randint(3, 6)
        rows = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, cols - 2))]
        basis = linalg.integer_kernel(rows, cols)
        k, chosen = len(basis), []
        for r in range(cols):
            if len(chosen) < k and sympy.Matrix([[b[s] for b in basis]
                                                 for s in chosen + [r]]).rank() > len(chosen):
                chosen.append(r)
        inv = sympy.Matrix([[b[s] for b in basis] for s in chosen]).inv()
        bound = rng.randint(1, 3)
        radii = [int(sum(abs(inv[i, j]) for j in range(k)) * bound) for i in range(k)]
        seen = []
        monkeypatch.setattr(linalg, "product", lambda *ranges: seen.append(list(ranges)) or [])
        linalg.kernel_vectors_up_to(basis, bound)
        assert seen == [[range(-n, n + 1) for n in radii]]


@pytest.mark.parametrize("index", [0, 1])
def test_c13_of_a_nonreal_alpha_is_the_closed_bound(index):
    # the nonreal roots of x^3 - 2, with the pair (P2, Q2): C13 is the
    # closed norm-form bound, which still lies below |W(alpha)|
    alpha = AlgNum.make(IntPoly((-2, 0, 0, 1)), index)
    assert not alpha.is_real
    pair = MinimalPair(alpha, alpha, PowerBasisRep(alpha, alpha, (0, 1, 0)),
                       P2, Q2, 2, "exact")
    v = c13(alpha, pair)
    assert v == c13_formula(alpha, Fraction(pair.height_bound),
                            alpha.mahler_interval().hi)
    with mpmath.workdps(60):
        z = min(mpmath.polyroots([1, 0, 0, -2], maxsteps=200, extraprec=200),
                key=lambda r: abs(r - alpha.enclosure().approx()))
        w = abs(sum(c * z ** k for k, c in enumerate(wronskian(P2, Q2).coeffs)))
        assert 0 < mpmath.mpf(v.numerator) / v.denominator <= w


def test_c14_exact_branch(alpha_cubic, beta_cubic):
    xi = hensel_root(CUBIC, 17, 3)
    pair = find_pair(alpha_cubic, beta_cubic)
    v = c14(xi, pair)
    assert v == 1                                     # W = -1: unit valuation
    # 2x at the witness is also a unit
    from gapkit.minpair import MinimalPair

    pair2x = MinimalPair(alpha_cubic, beta_cubic, pair.rep,
                         IntPoly((2, 0, -1)), IntPoly((1,)), 2, "exact")
    assert c14(xi, pair2x) == 1


def test_siegel_mode(alpha15, beta15):
    pair = find_pair(alpha15, beta15, mode="siegel")
    assert pair.minimality == "siegel-bounded"
    assert pair.r == 2
    rpt = verify_pair(alpha15, beta15, pair.p, pair.q, rep=pair.rep,
                      reference=pair)
    assert rpt["ok"]


def test_kernel_round_trip_property(alpha15, beta15):
    # random kernel vectors satisfy the relation after reduction mod f
    from gapkit.minpair import _vanishes, _split_vector

    rep = power_rep(alpha15, beta15)
    system = build_system(alpha15, rep, 2)
    basis = system.integer_kernel_basis()
    rng = random.Random(41)
    for _ in range(50):
        coeffs = [rng.randint(-5, 5) for _ in basis]
        vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                    for i in range(len(basis[0])))
        if not any(vec):
            continue
        p, q = _split_vector(vec, 2)
        assert _vanishes(alpha15, rep, p, q)
