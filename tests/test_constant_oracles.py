"""The constants read off root enclosures, and the height floors built from
them, against mpmath at 200 digits.

Each constant is a directed bound: C6 and the enclosure branch of C13 are
lower bounds, C9 and C11 upper bounds.  The value gapkit reports must lie on
its safe side of the mpmath value of the closed expression, and within 1e-9
of it relatively, so an enclosure that is rounded the wrong way or far too
wide fails here.

The height floors (the Wronskian-floor and Liouville-closing branches of C1
and C3, C16's large-height and iteration-floor branches, and C5) are upper
bounds with up to millions of digits.  Their closed forms are evaluated in
log2 from the same inputs gapkit used (C12, C13, C6, max(1, |alpha|), ...),
and the reported value must lie above, within 1e-9 relatively in log2.
Reports print these values through ``compact_str``; the tests swap it for
``_exact`` to read them exactly.

The constants built as products of rational powers (C10, C12's closed form,
C14's closed form, C2, C4, C15, the closed branch of the two-forms constant
and the root-separation bound) are checked against the same products at 200
digits, in log2, each on its safe side and within 1e-9 relatively.  C10 is
also checked against a naive search of the Lewis-Mahler inequality that it
bounds.
"""

import heapq
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from gapkit import gap, thue
from gapkit.algnum import AlgNum, PowerBasisRep, c8, c9, liouville_c6, power_rep
from gapkit.autgroup import d12_family
from gapkit.binforms import BinForm
from gapkit.gap import (archimedean_constants, c11, c15, nonarchimedean_constants,
                        two_forms_constant)
from gapkit.intpoly import IntPoly
from gapkit.isolation import root_separation_lower_bound
from gapkit.minpair import (MinimalPair, c12_closed_form, c13, c13_formula, c14_formula,
                            find_pair)
from gapkit.padic import hensel_root
from tests.conftest import CBRT2, CUBIC, CUBIC_IMAGE, QUARTIC

DPS = 200
RELATIVE = mpmath.mpf("1e-9")
MU, C0 = Fraction(11, 4), Fraction(1)
P1, Q1 = (2, 0, -1), (1,)        # the classical first pair: -x^2 + 2, 1

NUMBERS = {
    "alpha15": (QUARTIC, Fraction(1827, 1000)),
    "alpha_cubic": (CUBIC, Fraction(1879, 1000)),
    "cbrt2": (CBRT2, Fraction(126, 100)),
    "d12_root0": (d12_family(3, 1).dehomogenize(), None),
}


def _number(name: str) -> AlgNum:
    poly, near = NUMBERS[name]
    return AlgNum.make(poly, 0) if near is None else AlgNum.near(poly, near)


def _roots(alpha: AlgNum):
    """Every root of alpha's minimal polynomial at DPS digits, and the one
    that alpha selects."""
    roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(alpha.minpoly.coeffs)],
                             maxsteps=400, extraprec=4 * DPS)
    z = alpha.enclosure().approx()
    return roots, min(roots, key=lambda r: abs(r - mpmath.mpc(z.real, z.imag)))


def _q(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _check(value: Fraction, exact, side: str):
    v = _q(value)
    assert v <= exact if side == "lower" else v >= exact, (float(v), float(exact))
    assert abs(v - exact) <= RELATIVE * abs(exact), float(abs(v - exact) / exact)


@pytest.mark.parametrize("name", sorted(NUMBERS))
def test_liouville_c6_against_mpmath(name):
    alpha = _number(name)
    with mpmath.workdps(DPS):
        roots, z = _roots(alpha)
        prod = mpmath.fprod(1 + abs(r) for r in roots) / (1 + abs(z))
        _check(liouville_c6(alpha), 1 / (alpha.lead * prod), "lower")


@pytest.mark.parametrize("name", sorted(NUMBERS))
def test_c9_against_mpmath(name):
    # c9(alpha, alpha): the house of beta is alpha's own
    alpha = _number(name)
    d = alpha.degree
    with mpmath.workdps(DPS):
        roots, _ = _roots(alpha)
        best = max(mpmath.fprod((1 + abs(roots[i])) / abs(roots[i] - roots[j])
                                for i in range(d) if i != j) for j in range(d))
        exact = d * max(abs(r) for r in roots) * best
        _check(c9(alpha, alpha), exact, "upper")


@pytest.mark.parametrize("name", sorted(NUMBERS))
def test_c11_against_mpmath(name):
    alpha = _number(name)
    conjugates = [AlgNum(alpha.minpoly, i) for i in range(alpha.degree)]
    with mpmath.workdps(DPS):
        roots, _ = _roots(alpha)
        least = min(abs(a - b) for k, a in enumerate(roots) for b in roots[k + 1:])
        exact = (2 * _q(C0) / least) ** (1 / _q(MU))
        _check(c11(conjugates, MU, C0), exact, "upper")


# C13 has an enclosure branch only for a real alpha; D12's roots are nonreal
@pytest.mark.parametrize("name", ["alpha15", "alpha_cubic", "cbrt2"])
def test_c13_enclosure_branch_against_mpmath(name):
    # with the classical pair W = -2x, so |W(alpha)| = 2 |alpha|, and the
    # enclosure branch is far above the closed norm-form bound
    alpha = _number(name)
    rep = PowerBasisRep(alpha, alpha, (Fraction(0), Fraction(1))
                        + (Fraction(0),) * (alpha.degree - 2))
    pair = MinimalPair(alpha, alpha, rep, IntPoly(P1), IntPoly(Q1), 2, "exact")
    value = c13(alpha, pair)
    assert value > c13_formula(alpha, Fraction(pair.height_bound),
                               alpha.mahler_interval().hi)
    with mpmath.workdps(DPS):
        _, z = _roots(alpha)
        _check(value, 2 * abs(z), "lower")


# -- height floors, in log2 --------------------------------------------------------

# mpmath's own error at 200 digits, far below the rounding steps of the
# monomial branches and of C16's large-height branch (2^-127 relatively at
# the finest); the iteration floor's finer step is checked exactly as well
LOG2_NOISE = mpmath.mpf(10) ** -150
CENSUS_FORMS = {
    "d12": (d12_family(3, 1), 3, Fraction(38, 4)),
    "x^3 - 3xy^2 - y^3": (BinForm((1, 0, -3, -1)), 1, Fraction(11, 4)),
}


def _log2(x: Fraction):
    """log2 of a positive rational, from the top 1,100 bits of its
    numerator and of its denominator."""
    def lg(n: int):
        s = max(0, n.bit_length() - 1100)
        return s + mpmath.log(mpmath.mpf(n >> s), 2)

    x = Fraction(x)
    return lg(x.numerator) - lg(x.denominator)


def _check_log2_upper(value: Fraction, exact):
    got = _log2(value)
    assert got >= exact - LOG2_NOISE, (float(got), float(exact))
    assert got - exact <= RELATIVE * abs(exact), float((got - exact) / exact)


def _closing_log2(d: int, mu: Fraction, rest):
    """log2 of (2^(d^2 mu/4) ((d+2)/2)^((3d^2+4d) mu/8) L)^(1/(2mu - d)),
    given log2 L."""
    return (_q(Fraction(d * d, 4) * mu)
            + _q(Fraction(3 * d * d + 4 * d, 8) * mu) * mpmath.log(_q(Fraction(d + 2, 2)), 2)
            + rest) / _q(2 * mu - d)


def _arch_floor_log2(d, mu, c0, c12v, c13v, c6v, max1_up):
    """log2 of C1's Wronskian-floor and Liouville-closing branches:
    (2^((d+6)/2) ((d+2)/2) C0 C12^2 max(1,|alpha|)^d / C13)^(1/mu) and the
    closing of L = C0 C12^((d^2+3d) mu/2 + 2) max(1,|alpha|)^d / (C6 C13)."""
    lc0, l12, l13, l6, lmax = (_log2(v) for v in (c0, c12v, c13v, c6v, max1_up))
    wronskian = (_q(Fraction(d + 6, 2)) + mpmath.log(_q(Fraction(d + 2, 2)), 2)
                 + lc0 + 2 * l12 - l13 + d * lmax) / _q(mu)
    closing = _closing_log2(d, mu, lc0 + _q(Fraction(d * d + 3 * d, 2) * mu + 2) * l12
                            + d * lmax - l6 - l13)
    return wronskian, closing


def _exact(x, up):
    """``compact_str``'s stand-in: the value itself, whichever way it rounds."""
    return Fraction(x)


@pytest.fixture(scope="module")
def c5_runs():
    """c5 of each census form, with every call to archimedean_floor_branches
    and to c16 recorded, and C16's branches exact."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gap, "compact_str", _exact)
        for name, (f, m, mu) in CENSUS_FORMS.items():
            calls = {"floor": [], "c16": []}

            def recorded(fn, log):
                def wrapper(*args):
                    out = fn(*args)
                    log.append((args, out))
                    return out
                return wrapper

            mp.setattr(thue, "archimedean_floor_branches",
                       recorded(gap.archimedean_floor_branches, calls["floor"]))
            mp.setattr(thue, "c16", recorded(gap.c16, calls["c16"]))
            c10 = thue.lewis_mahler_c10(f)
            value, _ = thue.c5(f, m, mu, c10)
            runs[name] = (f, m, mu, c10, value, calls)
    return runs


def test_d12_height_floor_branches_against_mpmath(c5_runs):
    # every root of D12, root 0 included, from the census's own C5 inputs
    *_, calls = c5_runs["d12"]
    assert calls["floor"]
    with mpmath.workdps(DPS):
        for (d, mu, c0, c12v, roots), out in calls["floor"]:
            for (c13v, c6v, max1_up), branches in zip(roots, out):
                wronskian, closing = _arch_floor_log2(d, mu, c0, c12v, c13v, c6v, max1_up)
                values = dict(branches)
                _check_log2_upper(values["wronskian-floor"], wronskian)
                _check_log2_upper(values["liouville-closing"], closing)


def test_alpha15_height_floor_branches_against_mpmath(monkeypatch, alpha15, beta15):
    monkeypatch.setattr(gap, "compact_str", _exact)
    mu, c0 = Fraction(7, 2), Fraction(1)
    constants = archimedean_constants(alpha15, beta15, mu, c0)
    prov = dict(constants.provenance)
    max1_up = max(Fraction(1), alpha15.abs_interval().hi)
    with mpmath.workdps(DPS):
        wronskian, closing = _arch_floor_log2(alpha15.degree, mu, c0, prov["C12"],
                                              prov["C13"], prov["C6"], max1_up)
        _check_log2_upper(prov["wronskian-floor"], wronskian)
        _check_log2_upper(prov["liouville-closing"], closing)
        # C1 itself, the largest branch rounded up
        _check_log2_upper(constants.c_small, max(_log2(c0) / _q(mu), wronskian, closing))


def test_padic_height_floor_branches_against_mpmath(monkeypatch):
    # the README's `constants padic` pair: 17-adic root ~ 3 of x^3 - 3x - 1
    monkeypatch.setattr(gap, "compact_str", _exact)
    mu, c0 = Fraction(11, 4), Fraction(1)
    alpha = AlgNum.near(CUBIC, Fraction(1879, 1000))
    beta = AlgNum.near(CUBIC_IMAGE, Fraction(1532, 1000))
    xi = hensel_root(CUBIC, 17, 3)
    constants = nonarchimedean_constants(xi, find_pair(alpha, beta), mu, c0)
    prov = dict(constants.provenance)
    d = xi.degree
    with mpmath.workdps(DPS):
        lc0, l12, l14, l7, lca = (_log2(v) for v in (c0, prov["C12"], prov["C14"],
                                                     prov["C7"], Fraction(xi.lead)))
        # (2 C0 c_alpha^((3d-4)/2) / C14)^(1/mu), and the closing of
        # L = c_alpha^(d-1) C0 C12^((d^2+3d) mu/2) / (C7 C14)
        wronskian = (1 + lc0 - l14 + _q(Fraction(3 * d - 4, 2)) * lca) / _q(mu)
        closing = _closing_log2(d, mu, (d - 1) * lca + lc0 - l7
                                + _q(Fraction(d * d + 3 * d, 2) * mu) * l12 - l14)
        _check_log2_upper(prov["wronskian-floor"], wronskian)
        _check_log2_upper(prov["liouville-closing"], closing)
        _check_log2_upper(constants.c_small, max(lc0 / _q(mu), wronskian, closing))


def _c16_branches_log2(alphas, mu, c0, c_big, mahler_max_log_up):
    """log2 of C16's large-height branch,
    exp((log C0 + 1.42 sqrt(d) (log 4 + A)) / (mu - 1.42 sqrt(d))) with
    A = 500^2 (log M + d/2), and of its iteration floor
    C_big^(2/(mu - d/2 - 1))."""
    d = alphas[0].degree
    lam = mpmath.mpf("1.42") * mpmath.sqrt(d)
    a_big = 500 ** 2 * (_q(Fraction(mahler_max_log_up)) + mpmath.mpf(d) / 2)
    large = (mpmath.log(_q(Fraction(c0))) + lam * (mpmath.log(4) + a_big)) \
        / (_q(Fraction(mu)) - lam) / mpmath.log(2)
    iteration = 2 * _log2(c_big) / _q(Fraction(mu) - Fraction(d, 2) - 1)
    return large, iteration


@pytest.mark.parametrize("name", sorted(CENSUS_FORMS))
def test_c16_branches_against_mpmath(c5_runs, name):
    *_, calls = c5_runs[name]
    assert calls["c16"]
    with mpmath.workdps(DPS):
        for (alphas, mu, c0, _c_small, c_big, mahler), (_, prov) in calls["c16"]:
            large, iteration = _c16_branches_log2(alphas, mu, c0, c_big, mahler)
            _check_log2_upper(prov["branches"]["large-height"], large)
            _check_log2_upper(prov["branches"]["iteration-floor"], iteration)
            # the iteration floor's slack can lie below 200 digits; its side,
            # v^q >= C_big^p for the exponent p/q, is checked exactly
            e = 2 / (mu - Fraction(alphas[0].degree, 2) - 1)
            assert prov["branches"]["iteration-floor"] ** e.denominator >= c_big ** e.numerator


@pytest.mark.parametrize("name", sorted(CENSUS_FORMS))
def test_c5_against_mpmath(c5_runs, name):
    # C5 = max((C10 m)^(1/(d - mu)), C16 of the roots, C16 of the inverse
    # roots), every C16 branch in closed form; C11 from mpmath's roots
    f, m, mu, c10, value, calls = c5_runs[name]
    d = f.degree
    with mpmath.workdps(DPS):
        candidates = [_log2(c10 * m) / _q(d - mu)]
        for ((_, _, c0, c12v, roots), _), ((alphas, _, _, _, c_big, mahler), _) \
                in zip(calls["floor"], calls["c16"]):
            floor = max(max(_arch_floor_log2(d, mu, c0, c12v, *root)) for root in roots)
            poly_roots, _ = _roots(alphas[0])
            least = min(abs(a - b) for k, a in enumerate(poly_roots) for b in poly_roots[k + 1:])
            uniqueness = mpmath.log(2 * _q(Fraction(c0)) / least, 2) / _q(mu)
            candidates += [floor, uniqueness,
                           *_c16_branches_log2(alphas, mu, c0, c_big, mahler)]
        _check_log2_upper(value, max(candidates))


# -- products of rational powers, in log2 -----------------------------------------

def _check_log2(value: Fraction, exact, side: str):
    """``value`` on its side of 2^exact, within 1e-9 relatively."""
    got = _log2(value)
    if side == "upper":
        assert got >= exact - LOG2_NOISE, (float(got), float(exact))
    else:
        assert got <= exact + LOG2_NOISE, (float(got), float(exact))
    assert abs(mpmath.expm1((got - exact) * mpmath.log(2))) <= RELATIVE, float(got - exact)


def _monomial_log2(terms):
    """log2 of the product of b^x over the (b, x) in ``terms``."""
    return mpmath.fsum(_q(Fraction(x)) * _log2(Fraction(b)) for b, x in terms)


LM_FORMS = {
    "x^3 - 2y^3": BinForm((1, 0, 0, -2)),
    "3x^4 + 2x^3y - 8x^2y^2 + 2xy^3 + 3y^4": BinForm((3, 2, -8, 2, 3)),
    "x^3 - 3xy^2 - y^3": BinForm((1, 0, -3, -1)),
    "d12": d12_family(3, 1),
}


def _form_roots(f: BinForm):
    return mpmath.polyroots([mpmath.mpf(c) for c in f.coeffs], maxsteps=400,
                            extraprec=4 * DPS)


@pytest.mark.parametrize("name", sorted(LM_FORMS))
def test_lewis_mahler_c10_against_mpmath(name):
    # 2^(d-1) d^((d-1)/2) M^(d-2) / |D|^(1/2), with M and D from the roots
    f = LM_FORMS[name]
    d, lead = f.degree, abs(f.coeffs[0])
    with mpmath.workdps(DPS):
        roots = _form_roots(f)
        log_m = mpmath.log(lead, 2) + mpmath.fsum(mpmath.log(max(1, abs(r)), 2) for r in roots)
        log_disc = (2 * d - 2) * mpmath.log(lead, 2) + 2 * mpmath.fsum(
            mpmath.log(abs(roots[i] - roots[j]), 2) for i in range(d) for j in range(i + 1, d))
        exact = (d - 1) + mpmath.mpf(d - 1) / 2 * mpmath.log(d, 2) + (d - 2) * log_m - log_disc / 2
        _check_log2(thue.lewis_mahler_c10(f), exact, "upper")


def _lewis_mahler_ratios(f: BinForm, height: int):
    """The largest ratios min over the roots alpha of
    min(|alpha - x/y|, |1/alpha - y/x|) H^d / |F(x, y)| over the primitive
    (x, y) with H = max(|x|, |y|) <= height, found in floating point and
    recomputed at 50 digits; C10 bounds every one of them."""
    d = f.degree
    with mpmath.workdps(50):
        roots = _form_roots(f)
    approx = [complex(r) for r in roots]

    def ratio(x, y, roots):
        dist = min(abs(a - x / y) for a in roots) if y else mpmath.inf
        if x:
            dist = min(dist, min(abs(1 / a - y / x) for a in roots))
        return dist * max(abs(x), abs(y)) ** d / abs(f.value(x, y))

    pairs = [(1, 0)] + [(x, y) for y in range(1, height + 1)
                        for x in range(-height, height + 1) if gcd(x, y) == 1]
    top = heapq.nlargest(20, pairs, key=lambda p: ratio(p[0], p[1], approx))
    with mpmath.workdps(50):
        return [ratio(mpmath.mpf(x), mpmath.mpf(y), roots) for x, y in top]


@pytest.mark.parametrize("name", ["x^3 - 2y^3", "3x^4 + 2x^3y - 8x^2y^2 + 2xy^3 + 3y^4"])
def test_lewis_mahler_c10_against_naive_search(name):
    f = LM_FORMS[name]
    c10 = thue.lewis_mahler_c10(f)
    ratios = _lewis_mahler_ratios(f, 200)
    assert 0 < max(ratios) <= _q(c10), (float(max(ratios)), float(c10))


C12_PAIRS = {
    "alpha15": ((QUARTIC, Fraction(1827, 1000)), (QUARTIC, Fraction(1338, 1000))),
    "alpha_cubic": ((CUBIC, Fraction(1879, 1000)), (CUBIC_IMAGE, Fraction(1532, 1000))),
    "cbrt2": ((CBRT2, Fraction(126, 100)), (CBRT2, Fraction(126, 100))),
}


@pytest.mark.parametrize("name", sorted(C12_PAIRS))
def test_c12_closed_form_against_mpmath(name):
    # ((2s+2) D c_alpha^s C9 (1 + s C8^s))^(d/(2s+2-d)) 2^(d/2) at s = floor(d/2),
    # from gapkit's C8 and C9
    (pa, na), (pb, nb) = C12_PAIRS[name]
    alpha, beta = AlgNum.near(pa, na), AlgNum.near(pb, nb)
    rep = power_rep(alpha, beta)
    d = alpha.degree
    s = d // 2
    base = Fraction(2 * s + 2) * rep.denominator * alpha.lead ** s \
        * c9(alpha, beta) * (1 + s * c8(alpha) ** s)
    with mpmath.workdps(DPS):
        exact = _monomial_log2([(base, Fraction(d, 2 * s + 2 - d)), (2, Fraction(d, 2))])
        _check_log2(c12_closed_form(alpha, beta, rep.denominator), exact, "upper")


@pytest.mark.parametrize("poly, prime, r0, height", [
    (CUBIC, 17, 3, 1), (CUBIC, 17, 3, 10 ** 6), (QUARTIC, 31, 3, 41)])
def test_c14_formula_against_mpmath(poly, prime, r0, height):
    # ((d+1)^((d-1)/2) d^(d/2) H(alpha)^(2d-2) ((d^2/2) H^2)^d)^(-1)
    xi = hensel_root(poly, prime, r0)
    d, h = xi.degree, Fraction(height)
    with mpmath.workdps(DPS):
        exact = -_monomial_log2([(d + 1, Fraction(d - 1, 2)), (d, Fraction(d, 2)),
                                 (xi.minpoly.height(), 2 * d - 2),
                                 (Fraction(d * d, 2) * h * h, d)])
        _check_log2(c14_formula(xi, h), exact, "lower")


def test_c2_against_mpmath(monkeypatch, alpha15, beta15, alpha_cubic, beta_cubic):
    # C0 2^((d+2)/2) (2 + |beta|) C12 max(1, |alpha|)^(d/2), from gapkit's
    # C12 and its upper bounds on |alpha| and |beta|
    monkeypatch.setattr(gap, "compact_str", _exact)
    for alpha, beta, mu, c0 in ((alpha15, beta15, Fraction(7, 2), Fraction(1)),
                                (alpha_cubic, beta_cubic, Fraction(11, 4), Fraction(3, 7))):
        constants = archimedean_constants(alpha, beta, mu, c0)
        d = alpha.degree
        max1_up = max(Fraction(1), alpha.abs_interval().hi)
        with mpmath.workdps(DPS):
            exact = _monomial_log2([(c0, 1), (2, Fraction(d + 2, 2)),
                                    (2 + beta.abs_interval().hi, 1),
                                    (dict(constants.provenance)["C12"], 1),
                                    (max1_up, Fraction(d, 2))])
            _check_log2(constants.c_big, exact, "upper")


def test_c4_against_mpmath(monkeypatch):
    # (d+2) C0 C12 c_alpha^(d/2) c_beta for the README's 17-adic pair
    monkeypatch.setattr(gap, "compact_str", _exact)
    alpha = AlgNum.near(CUBIC, Fraction(1879, 1000))
    beta = AlgNum.near(CUBIC_IMAGE, Fraction(1532, 1000))
    xi = hensel_root(CUBIC, 17, 3)
    pair = find_pair(alpha, beta)
    for c0 in (Fraction(1), Fraction(5, 3)):
        constants = nonarchimedean_constants(xi, pair, MU, c0)
        d = xi.degree
        with mpmath.workdps(DPS):
            exact = _monomial_log2([(d + 2, 1), (c0, 1), (dict(constants.provenance)["C12"], 1),
                                    (xi.lead, Fraction(d, 2)), (pair.beta.lead, 1)])
            _check_log2(constants.c_big, exact, "upper")


@pytest.mark.parametrize("r", range(1, 7))
def test_c15_against_mpmath(r):
    # 2^(r^2) (r+1)^((3r^2+2r)/2)
    with mpmath.workdps(DPS):
        exact = _monomial_log2([(2, r * r), (r + 1, Fraction(3 * r * r + 2 * r, 2))])
        _check_log2(c15(r), exact, "upper")


TWO_FORMS = [((2, 0, -1), (1,)), ((-1, -3, 0, 1), (7,)), ((-1, -3, 0, 1), (-2, 0, 1)),
             ((-2, 0, 0, 1), (1, 1)), ((1, 4, -4, -1, 1), (3, 0, -5, 2))]


@pytest.mark.parametrize("p, q", TWO_FORMS)
def test_two_forms_closed_branch_against_mpmath(monkeypatch, p, q):
    # with the direct enclosure switched off, the constant is its closed
    # branch: 1/(2 sqrt(r+1) H) when Q is constant, else
    # 2^(-r) H^(-2r-1) (r+1)^(-3r/2), with H = max(H(P), H(Q))
    monkeypatch.setattr(gap, "_two_forms_direct", lambda *args: Fraction(0))
    p, q = IntPoly(p), IntPoly(q)
    r, h = p.degree, max(p.height(), q.height())
    if q.degree == 0:
        terms = [(2, 1), (r + 1, Fraction(1, 2)), (h, 1)]
    else:
        terms = [(2, r), (h, 2 * r + 1), (r + 1, Fraction(3 * r, 2))]
    with mpmath.workdps(DPS):
        _check_log2(two_forms_constant(p, q), -_monomial_log2(terms), "lower")


@pytest.mark.parametrize("p, q", TWO_FORMS + [((0, 1), (1, 1)), ((3, 0, 0, 0, 0, -7), (1,))])
def test_root_separation_lower_bound_against_mpmath(p, q):
    # 2^(1-r) (r+1)^((1-3r)/2) H^(-2r)
    p, q = IntPoly(p), IntPoly(q)
    r, h = p.degree, max(p.height(), q.height())
    with mpmath.workdps(DPS):
        exact = -_monomial_log2([(2, r - 1), (r + 1, Fraction(3 * r - 1, 2)), (h, 2 * r)])
        _check_log2(root_separation_lower_bound(p, q), exact, "lower")
