from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gapkit import algnum, isolation
from gapkit.algnum import (AlgNum, NotInFieldError, c8, c9, denominator_scalar,
                           is_irreducible, liouville_c6, power_rep, power_table,
                           theta_upper_bound)
from gapkit.autgroup import aut_prime, d12_family
from gapkit.intpoly import IntPoly
from gapkit.isolation import PrecisionError
from gapkit.thue import ThueProblem, census
from tests.conftest import CBRT2, CUBIC, QUARTIC


def max_abs(rep):
    return max(abs(c) for c in rep.coeffs)

X = sympy.Symbol("x")


def sympy_reduction_oracle(f: IntPoly, r: int):
    """Independent reduction of x^r mod f over Q via sympy."""
    fs = sympy.Poly(list(reversed(f.coeffs)), X, domain="QQ")
    rem = sympy.Poly([1] + [0] * r, X, domain="QQ").rem(fs)
    coeffs = [Fraction(0)] * f.degree
    for k, c in enumerate(reversed(rem.all_coeffs())):
        coeffs[k] = Fraction(c.p, c.q)
    return tuple(coeffs)


def test_power_table_examples(cbrt2):
    assert power_table(cbrt2, 3) == (2, 0, 0)
    assert power_table(cbrt2, 4) == (0, 2, 0)
    for r in range(3):
        unit = tuple(Fraction(int(i == r)) for i in range(3))
        assert power_table(cbrt2, r) == unit


def test_power_table_vs_sympy(alpha15, alpha_cubic):
    for alg in (alpha15, alpha_cubic):
        for r in range(0, 3 * alg.degree + 1):
            assert power_table(alg, r) == sympy_reduction_oracle(alg.minpoly, r)


def test_power_table_integrality_and_size():
    # Lemma-style bounds for a non-monic minimal polynomial
    f = IntPoly((-3, -3, 0, 2))  # 2x^3 - 3x - 3: no rational root, irreducible
    alg = AlgNum.make(f, 0)
    d, ca = alg.degree, alg.lead
    bound = c8(alg)
    for r in range(0, 3 * d + 1):
        row = power_table(alg, r)
        e = max(0, r - d + 1)
        for a in row:
            scaled = a * ca ** e
            assert scaled.denominator == 1          # integrality
            assert abs(a) <= bound ** e or e == 0 and abs(a) <= 1


def test_c8_examples(cbrt2, alpha_cubic, alpha15):
    assert c8(cbrt2) == 3
    assert c8(alpha_cubic) == 4      # alpha^3 = 3 alpha + 1
    assert c8(alpha15) == 5          # 1 + max|(-1, -4, 4, 1)|


def test_power_rep_paper_example(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    assert rep.coeffs == (-2, 0, 1, 0)   # beta = alpha^2 - 2
    # double-angle oracle at 50 digits
    mpmath.mp.dps = 60
    a = 2 * mpmath.cos(2 * mpmath.pi / 15)
    b = 2 * mpmath.cos(4 * mpmath.pi / 15)
    assert abs((a ** 2 - 2) - b) < mpmath.mpf(10) ** -50
    assert denominator_scalar(rep) == 1


def test_power_rep_identity(alpha15):
    rep = power_rep(alpha15, alpha15)
    assert rep.coeffs == (0, 1, 0, 0)


def test_power_rep_not_in_field(cbrt2):
    sqrt2 = AlgNum.near(IntPoly((-2, 0, 1)), Fraction(141, 100))
    with pytest.raises(NotInFieldError):
        power_rep(cbrt2, sqrt2)


def test_power_rep_rational_coeffs(cbrt2):
    # beta = (1 + alpha)/2: minimal polynomial of (1+2^(1/3))/2 is 8x^3-12x^2+6x-3
    beta = AlgNum.near(IntPoly((-3, 6, -12, 8)), Fraction(113, 100))
    rep = power_rep(cbrt2, beta)
    assert rep.coeffs == (Fraction(1, 2), Fraction(1, 2), 0)
    assert denominator_scalar(rep) == 2
    assert max_abs(rep) == Fraction(1, 2)


def test_power_rep_over_a_non_monic_minimal_polynomial():
    # 2x^4 - 4x^2 + 1 has four real roots and generates the cyclic quartic
    # field Q(sqrt(2 + sqrt 2)): every conjugate is a polynomial in any
    # other, and each exact check reduces modulo a leading coefficient 2
    f = IntPoly((1, 0, -4, 0, 2))
    alpha = AlgNum.make(f, 3)
    for i in range(3):
        rep = power_rep(alpha, AlgNum(f, i))
        num, den = rep.numerator(), rep.denominator
        assert algnum._verify_algebraic(f, f, num, den)
        assert not algnum._verify_algebraic(f, f, num + IntPoly((1,)), den)
        assert not algnum._verify_algebraic(f, f, num, den * 2)
        # the relation of one conjugate is rejected for another by the embedding
        rel = list(num.coeffs) + [0] * (4 - len(num.coeffs)) + [-den]
        assert algnum._verify_rep(alpha, AlgNum(f, (i + 1) % 3), rel) is None
        assert algnum._verify_rep(alpha, AlgNum(f, i), rel) == rep
    # alpha / 2, a root of 32x^4 - 16x^2 + 1: a denominator and a non-monic g
    half = AlgNum.near(IntPoly((1, 0, -16, 0, 32)), Fraction(65, 100))
    rep = power_rep(alpha, half)
    assert rep.coeffs == (0, Fraction(1, 2), 0, 0)
    assert (rep.numerator(), rep.denominator) == (IntPoly((0, 1)), 2)
    assert not algnum._verify_algebraic(f, half.minpoly, IntPoly((0, 1)), 3)


def test_c9_dominates_representation(alpha15, beta15):
    rep = power_rep(alpha15, beta15)
    bound = c9(alpha15, beta15)
    assert bound >= max_abs(rep) >= 2


def test_c9_dominates_on_conjugate_pairs():
    # all ordered pairs of distinct conjugates in the Galois quartic field
    algs = [AlgNum.make(QUARTIC, i) for i in range(4)]
    count = 0
    for a in algs:
        for b in algs:
            if a.index == b.index or not (a.is_real and b.is_real):
                continue
            rep = power_rep(a, b)
            assert c9(a, b) >= max_abs(rep)
            count += 1
    assert count == 12


def test_theta_upper_bound(cbrt2):
    assert theta_upper_bound(cbrt2) == 10          # isqrt(108)
    # monic with squarefree discriminant: true index is 1, bound still >= 1
    f = IntPoly((-1, -1, 0, 1))                    # x^3 - x - 1, disc -23
    assert theta_upper_bound(AlgNum.make(f, 0)) >= 1
    golden_like = AlgNum.make(IntPoly((-1, -3, 0, 1)), 0)
    assert theta_upper_bound(golden_like) >= 1


def test_liouville_c6_examples(cbrt2):
    v = liouville_c6(cbrt2)
    # (1 + 2^(1/3))^(-2) ~ 0.1958, rounded down
    assert Fraction(19, 100) < v < Fraction(196, 1000)
    # all conjugates inside the unit disk gives C6 >= (c 2^(d-1))^(-1)
    f = IntPoly((1, 1, 1, 1, 1))  # 5th cyclotomic: roots on unit circle
    alg = AlgNum.make(f, 0)
    assert liouville_c6(alg) >= Fraction(1, 2 ** 3) * Fraction(999, 1000)


def test_liouville_c6_brute_force(alpha_cubic):
    # |alpha - x/y| * H^d >= C6 over all reduced x/y with H <= 200
    c6 = liouville_c6(alpha_cubic)
    d = alpha_cubic.degree
    enc = alpha_cubic.enclosure(Fraction(1, 10 ** 40)).interval
    worst = None
    for y in range(1, 201):
        for x in range(-200, 201):
            if gcd(abs(x), abs(y)) != 1:
                continue
            h = max(abs(x), abs(y))
            dist_lo = max(enc.lo - Fraction(x, y), Fraction(x, y) - enc.hi)
            assert dist_lo > 0, "enclosure width must separate nearby rationals"
            q = dist_lo * h ** d
            if worst is None or q < worst:
                worst = q
    assert worst >= c6


def test_liouville_c6_on_convergents(cbrt2):
    from gapkit.thue import convergents

    c6 = liouville_c6(cbrt2)
    enc = cbrt2.enclosure(Fraction(1, 10 ** 60)).interval
    for pr in convergents(cbrt2, 12):
        dist_lo = max(enc.lo - pr.value(), pr.value() - enc.hi)
        assert dist_lo * Fraction(pr.height) ** 3 >= c6


# -- irreducibility against sympy ----------------------------------------------

def sympy_irreducible(p: IntPoly) -> bool:
    """sympy's verdict, with gapkit's convention below degree 1."""
    return p.degree >= 1 and sympy.Poly(list(reversed(p.coeffs)), X).is_irreducible


def _poly_of_degree(lo, hi, size):
    return st.integers(lo, hi).flatmap(lambda d: st.tuples(
        st.lists(st.integers(-size, size), min_size=d, max_size=d),
        st.integers(-size, size).filter(bool))).map(lambda t: IntPoly(t[0] + [t[1]]))


def _product(factors):
    out = IntPoly((1,))
    for f in factors:
        out = out * f
    return out


_random_poly = _poly_of_degree(1, 12, 12)
_product_poly = st.lists(_poly_of_degree(1, 4, 5), min_size=2, max_size=4).map(
    _product).filter(lambda p: p.degree <= 12)
_content = st.sampled_from([1, -1, 2, -3, 6])

D12 = d12_family(3, 1).dehomogenize()
SPECIAL = [
    IntPoly((1, 0, 0, 0, 1)),                   # x^4 + 1: reducible mod every p
    IntPoly((6, 0, -5, 0, 1)),                  # (x^2 - 2)(x^2 - 3)
    D12,                                        # the sieve leaves size 6 open
    D12 * IntPoly((1, 1)),                      # ... and with a rational root
    IntPoly((5,)), IntPoly((4, 2)), IntPoly((4, 0, 2)), IntPoly((-4, 0, 4)),
    IntPoly((1, -2, 1)),                        # (x - 1)^2: not squarefree
    IntPoly((0, -2, 0, 1)),                     # x (x^2 - 2)
    CUBIC, CBRT2, QUARTIC,
]


@given(st.one_of(_random_poly, _product_poly), _content)
@settings(max_examples=80, deadline=None)
def test_is_irreducible_matches_sympy(p, content):
    p = p * content
    assert is_irreducible(p) == sympy_irreducible(p)


@pytest.mark.parametrize("p", SPECIAL, ids=str)
def test_is_irreducible_special_cases(p):
    assert is_irreducible(p) == sympy_irreducible(p)
    assert not is_irreducible(IntPoly.zero())


def test_undecided_disks_abstain(monkeypatch):
    # with no disk ever certified free of integers, no root set is excluded:
    # the test must abstain where the sieve leaves a size open, not say True;
    # fresh root systems, since each keeps the verdict it was given
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    monkeypatch.setattr(algnum, "disk_holds_integer", lambda disk, bits: True)
    for p in (IntPoly((1, 0, 0, 0, 1)), D12):
        with pytest.raises(PrecisionError):
            is_irreducible(p)
    assert is_irreducible(CUBIC)                # decided by the sieve alone


@contextmanager
def _without_sieve():
    """Leave every factor degree open, as if the sieve ruled out none, on
    fresh root systems, so that no verdict kept from a sieved test is read."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isolation, "_SYSTEMS", {})
        mp.setattr(algnum, "factor_degree_sieve", lambda f, primes: set(range(1, f.degree)))
        yield


@given(st.one_of(_poly_of_degree(2, 9, 6), _product_poly))
@settings(max_examples=25, deadline=None)
def test_is_irreducible_needs_no_sieve(p):
    # the sieve only prunes: with every size left open the verdicts agree
    expected = is_irreducible(p)
    with _without_sieve():
        assert is_irreducible(p) == expected


def test_special_cases_need_no_sieve():
    with _without_sieve():
        assert [is_irreducible(q) for q in SPECIAL] == [sympy_irreducible(q) for q in SPECIAL]


def test_d12_root_system_is_built_once(monkeypatch):
    # validating the D12 problem builds the root system and the table that
    # aut_prime then reads, under the key the census uses
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    built = []
    init = isolation._RootSystem.__init__

    def counted(self, p):
        built.append(p.coeffs)
        init(self, p)

    monkeypatch.setattr(isolation._RootSystem, "__init__", counted)
    form = d12_family(3, 1)
    ThueProblem(form, 3, 40)
    assert built == [D12.coeffs] and list(isolation._SYSTEMS) == built
    assert Fraction(1, 10 ** 20) in isolation._SYSTEMS[D12.coeffs].tables
    assert aut_prime(form).order == 24
    assert built == [D12.coeffs]


def test_d12_census_reads_the_kept_irreducibility_verdict(monkeypatch):
    # ThueProblem takes the verdict; the census's aut_prime asks again and
    # reads the one kept on the root system, without sieving
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    problem = ThueProblem(d12_family(3, 1), 3, 40)
    sieved = []
    sieve = algnum.factor_degree_sieve

    def counted(f, primes):
        sieved.append(f.coeffs)
        return sieve(f, primes)

    monkeypatch.setattr(algnum, "factor_degree_sieve", counted)
    assert census(problem, Fraction(38, 4)).report()["autOrder"] == 24
    assert sieved == []
