import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

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
from gapkit.linalg import lll_reduce
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


# the representations the parent's PSLQ search found, pinned: the README's
# quartic and cubic pairs, the cube root of 2 with a denominator, and the
# sweep's quintic and sextic fields
PINNED_REPS = [
    ((1, 4, -4, -1, 1), 3, (1, 4, -4, -1, 1), 2, (-2, 0, 1, 0)),
    ((1, 4, -4, -1, 1), 0, (1, 4, -4, -1, 1), 1, (2, 3, -1, -1)),
    ((1, 4, -4, -1, 1), 3, (29, -85, 85, -35, 5), 2, ("4/5", "2/5", "2/5", "-1/5")),
    ((-1, -3, 0, 1), 2, (1, -3, 0, 1), 2, (-2, 0, 1)),
    ((-2, 0, 0, 1), 2, (-3, 6, -12, 8), 2, ("1/2", "1/2", 0)),
    ((1, -40, 145, -71, -13, 1), 0, (1, -40, 145, -71, -13, 1), 3,
     ("10/9", -30, "79/3", "37/9", "-1/3")),
    ((1, -6, -11, 6, 15, 7, 1), 0, (1, -6, -11, 6, 15, 7, 1), 2, (0, -5, -5, 5, 5, 1)),
]


@pytest.mark.parametrize("f, i, g, j, coeffs", PINNED_REPS)
def test_power_rep_finds_the_pinned_representation(f, i, g, j, coeffs):
    rep = power_rep(AlgNum(IntPoly(f), i), AlgNum(IntPoly(g), j))
    assert rep.coeffs == tuple(Fraction(c) for c in coeffs)


def test_power_rep_reaches_the_480_bit_rung(monkeypatch):
    # the cyclic cubic x^3 - 3x - 1 at x -> x / 2^50: the relation
    # 2^50 beta = -2^101 - 2^50 alpha + alpha^2 has a coefficient above
    # 10^30, the 240-bit rung's bound, and is found at 480 bits
    n = 2 ** 50
    p = IntPoly((-n ** 3, -3 * n ** 2, 0, 1))
    rungs = []
    search = algnum._relation_candidate

    def spy(alpha, beta, bits, start):
        rungs.append(bits)
        return search(alpha, beta, bits, start)

    monkeypatch.setattr(algnum, "_relation_candidate", spy)
    rep = power_rep(AlgNum(p, 2), AlgNum(p, 1))
    assert rep.coeffs == (-2 * n, -1, Fraction(1, n))
    assert rungs == [240, 480]


def _gram_schmidt(rows):
    """Squared norms of the Gram-Schmidt vectors and the coefficients mu, exactly."""
    star, norms, mu = [], [], []
    for i, b in enumerate(rows):
        v = [Fraction(x) for x in b]
        mu.append([])
        for j in range(i):
            m = sum(Fraction(x) * y for x, y in zip(b, star[j])) / norms[j]
            mu[i].append(m)
            v = [x - m * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return norms, mu


def _det(m):
    """Determinant of a square integer matrix, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@given(st.integers(min_value=2, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(min_value=-2 ** 80, max_value=2 ** 80), min_size=n, max_size=n))))
@settings(max_examples=60, deadline=None)
def test_lll_reduce_gives_a_reduced_basis_of_the_same_lattice(case):
    # rows [I | v]: the reduced rows begin with the unimodular transform, and
    # the basis is size reduced (|mu| <= 1/2) with Lovasz's condition at 3/4
    n, v = case
    rows = [[int(i == j) for j in range(n)] + [c] for i, c in enumerate(v)]
    out = lll_reduce(rows)
    transform = [row[:n] for row in out]
    assert abs(_det(transform)) == 1
    assert all(row[n] == sum(t * c for t, c in zip(row[:n], v)) for row in out)
    norms, mu = _gram_schmidt(out)
    assert all(abs(m) <= Fraction(1, 2) for row in mu for m in row)
    assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, n))


def test_lll_reduce_finds_a_small_relation():
    # 1, sqrt 2, sqrt 3 and sqrt 6, scaled by 2^100, have no small integer
    # relation; sqrt(5 + 2 sqrt 6) = sqrt 2 + sqrt 3 adds one
    scale = 2 ** 100
    vals = [scale, isqrt(2 * scale ** 2), isqrt(3 * scale ** 2), isqrt(6 * scale ** 2),
            isqrt((5 * scale ** 2) + 2 * isqrt(6 * scale ** 4))]
    assert lll_reduce([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])
    rows = [[int(i == j) for j in range(5)] + [c] for i, c in enumerate(vals)]
    first = lll_reduce(rows)[0][:5]
    assert first in ([0, 1, 1, 0, -1], [0, -1, -1, 0, 1])


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


def test_theta_upper_bound_is_the_root_of_the_monic_discriminant():
    # theta = isqrt |disc h| for h = c^(d-1) f(x/c), the monic minimal
    # polynomial of c * alpha with c = lc(f), built here by sympy.  For
    # f = 3x^3 + 3x^2 - 5x + 1, h = x^3 + 3x^2 - 15x + 9 has disc 5076 =
    # 3^2 * 564 (disc K = 564, so Z[3 alpha] has index 3); the non-monic
    # 3(x - 1)^2 (x + 3) in place of h has disc 0 and would give theta = 1
    pinned = AlgNum.make(IntPoly((1, -5, 3, 3)), 0)
    assert theta_upper_bound(pinned) == 71
    rng = random.Random(28)
    alphas = [pinned]
    while len(alphas) < 40:
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(3, 6))] + [rng.randint(2, 9)])
        if is_irreducible(f) and f.content() == 1:
            alphas.append(AlgNum.make(f, 0))
    for alpha in alphas:
        f, c, d = alpha.minpoly, alpha.lead, alpha.degree
        fx = sympy.Poly(list(reversed(f.coeffs)), X).as_expr()
        h = sympy.Poly(sympy.expand(c ** (d - 1) * fx.subs(X, X / c)), X)
        assert h.LC() == 1 and all(k.is_integer for k in h.all_coeffs())
        assert theta_upper_bound(alpha) == isqrt(abs(int(sympy.discriminant(h)))), f


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
