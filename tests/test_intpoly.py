import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from gapkit.intpoly import (IntPoly, discriminant_poly, exact_quotient, factor_degree_sieve,
                            factor_degrees_mod, is_squarefree, poly_gcd_q, prem,
                            resultant, squarefree_part)

X = sympy.Symbol("x")


def to_sympy(p: IntPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X)


def rand_poly(rng, max_deg=4, max_h=8, nonzero=True):
    while True:
        coeffs = [rng.randint(-max_h, max_h) for _ in range(rng.randint(1, max_deg + 1))]
        p = IntPoly(coeffs)
        if not nonzero or not p.is_zero:
            return p


def test_height_examples():
    # 3x^3 - 5x + 1 (univariate stand-in for the form example)
    assert IntPoly((1, -5, 0, 3)).height() == 5
    assert IntPoly((1, 4, -4, -1, 1)).height() == 4  # minpoly of 2cos(2pi/15)
    assert IntPoly((7,)).height() == 7
    assert IntPoly(()).height() == 0


def test_quartic_is_minpoly_of_2cos2pi15():
    # oracle: evaluate at a 50-digit enclosure of 2cos(2pi/15)
    import mpmath

    mpmath.mp.dps = 60
    val = 2 * mpmath.cos(2 * mpmath.pi / 15)
    p = IntPoly((1, 4, -4, -1, 1))
    acc = mpmath.mpf(0)
    for c in reversed(p.coeffs):
        acc = acc * val + c
    assert abs(acc) < mpmath.mpf(10) ** -50
    assert sympy.Poly([1, -1, -4, 4, 1], X).is_irreducible


def test_resultant_examples():
    # 3x3 Sylvester determinant oracle, computed by hand expansion
    p, q = IntPoly((-2, 0, 1)), IntPoly((-1, 1))
    det3 = (1 * ((1) * (-2) - (-1) * 0)
            - (-1) * (0 * (-2) - (-1) * 1)
            + 0)
    assert resultant(p, q) == det3 == -1
    assert resultant(IntPoly((-2, 0, 0, 1)), IntPoly((0, 1))) == -2
    r = IntPoly((1, 2, 3))
    assert resultant(r, r) == 0
    with pytest.raises(ValueError):
        resultant(IntPoly(()), r)


def classical_sylvester_det(p: IntPoly, q: IntPoly):
    """Unambiguous oracle: determinant of the classical Sylvester matrix
    (deg Q rows of P's coefficients on top)."""
    r, s = p.degree, q.degree
    n = r + s
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(s):
        rows.append([0] * i + pc + [0] * (n - r - 1 - i))
    for i in range(r):
        rows.append([0] * i + qc + [0] * (n - s - 1 - i))
    return sympy.Matrix(rows).det() if n else sympy.Integer(1)


def test_resultant_vs_sylvester_oracle():
    # small pairs, degree-0 operands among them; degrees up to 10 with
    # 64-bit coefficients; polynomials in x^2, whose remainder sequences
    # drop two degrees a step; and pairs that share a factor, whose
    # resultant is 0
    rng = random.Random(7)
    big = 1 << 64
    pairs = [(rand_poly(rng), rand_poly(rng)) for _ in range(200)]
    pairs += [(rand_poly(rng, 10, big), rand_poly(rng, 10, big)) for _ in range(30)]
    for _ in range(20):
        p, q = rand_poly(rng, 5, big), rand_poly(rng, 5, big)
        pairs.append((IntPoly(c for a in p.coeffs for c in (a, 0)),
                      IntPoly(c for a in q.coeffs for c in (a, 0))))
    for _ in range(20):
        common = IntPoly((rng.randint(-big, big), rng.randint(1, big)))
        pairs.append((rand_poly(rng, 6, big) * common, rand_poly(rng, 6, big) * common))
    assert any(p.degree == 0 for pair in pairs for p in pair)
    for p, q in pairs:
        ours = resultant(p, q)
        ref = classical_sylvester_det(p, q)
        assert ours == (-1) ** (p.degree * q.degree) * ref, (p, q)
        assert abs(ours) == abs(sympy.resultant(
            to_sympy(p).as_expr(), to_sympy(q).as_expr(), X))


def test_resultant_zero_iff_common_factor():
    rng = random.Random(11)
    for _ in range(200):
        p, q = rand_poly(rng, max_deg=3), rand_poly(rng, max_deg=3)
        if p.degree < 1 or q.degree < 1:
            continue
        assert (resultant(p, q) == 0) == (poly_gcd_q(p, q).degree > 0)


def test_discriminant_examples():
    # depressed cubic oracle: -4p^3 - 27q^2
    p, q = -3, -1
    assert discriminant_poly(IntPoly((-1, -3, 0, 1))) == -4 * p ** 3 - 27 * q ** 2 == 81
    assert discriminant_poly(IntPoly((1, 1, 1))) == 1 - 4  # b^2 - 4ac


def test_discriminant_vs_sympy():
    rng = random.Random(13)
    for _ in range(100):
        p = rand_poly(rng, max_deg=8)
        if p.degree < 2:
            continue
        assert discriminant_poly(p) == sympy.discriminant(to_sympy(p).as_expr(), X)


def test_reciprocal():
    assert IntPoly((-1, 3, 0, 2)).reciprocal() == IntPoly((2, 0, 3, -1))
    assert IntPoly((1, 0, 1)).reciprocal() == IntPoly((1, 0, 1))
    assert IntPoly((0, 1)).reciprocal() == IntPoly((1,))


def test_reciprocal_involution():
    rng = random.Random(17)
    for _ in range(100):
        p = rand_poly(rng)
        if p.is_zero or p.coeffs[0] == 0:
            continue  # involution needs a nonzero constant term
        assert p.reciprocal().reciprocal() == p


def test_gcd_and_squarefree():
    p = IntPoly((-2, 0, 1))
    sq = p * p * IntPoly((1, 1))
    assert not is_squarefree(sq)
    assert is_squarefree(p)
    assert squarefree_part(sq) == p * IntPoly((1, 1))
    g = poly_gcd_q(p * IntPoly((3, 1)), p * IntPoly((5, 2)))
    assert g == p


def divided_derivative(p: IntPoly, i: int) -> IntPoly:
    """The i-th divided derivative (1/i!) d^i/dx^i; integer coefficients."""
    return IntPoly(comb(k, i) * p.coeff(k) for k in range(i, len(p.coeffs)))


def test_divided_derivative_and_eval():
    p = IntPoly((1, 2, 3, 4))  # 4x^3+3x^2+2x+1
    assert divided_derivative(p, 1) == p.derivative()
    assert divided_derivative(p, 2) == IntPoly((3, 12))  # (1/2)p'' = 12x + 3
    assert p.eval_at(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4) + Fraction(1, 2)
    assert p.eval_pair(1, 2, 3) == 8 + 2 * 4 + 3 * 2 + 4


def test_prem_and_exact_quotient():
    f, g = IntPoly((-2, 0, 1)), IntPoly((2, 1))
    # x^2 - 2 = (x + 2)(x - 2) + 2
    assert prem(f, g) == IntPoly((2,)) and exact_quotient(f, g) is None
    assert exact_quotient(f * g, g) == f
    # 3^2 (x^2 - 2) = (3x + 6)(3x - 6) + 18: the power of lc(b) is deg a - deg b + 1
    assert prem(f, g * 3) == IntPoly((18,))
    # x^3 + 1 by 2x^2 + 1: a zero second step still multiplies by lc(b)
    assert prem(IntPoly((1, 0, 0, 1)), IntPoly((1, 0, 2))) == IntPoly((4, -2))
    assert prem(g, f) == g and prem(IntPoly.zero(), f).is_zero
    # x divides 2x over Q but not over Z, and not the other way about
    x = IntPoly.x()
    assert exact_quotient(x * 2, x) == IntPoly((2,)) and exact_quotient(x, x * 2) is None
    assert exact_quotient(f, IntPoly.zero()) is None


def _from_sympy(p) -> IntPoly:
    return IntPoly(reversed([int(c) for c in p.all_coeffs()]))


def _normalized(p: IntPoly) -> IntPoly:
    p = p.primitive()
    return p if p.is_zero or p.lead > 0 else -p


def test_division_helpers_match_sympy_on_large_coefficients():
    # products of non-monic factors with 1,000 to 7,000-bit coefficients,
    # one of them squared: sympy's prem, gcd, exquo and div are the oracle
    rng = random.Random(22)

    def draw(deg, bits):
        coeffs = [rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(deg + 1)]
        return IntPoly(coeffs[:-1] + [coeffs[-1] | 2])

    for _ in range(8):
        bits = rng.randint(1000, 7000)
        u, v, w = (draw(rng.randint(1, 3), bits // k) for k in (1, 2, 3))
        p = u * v * w * w
        # u * 2 divides u * v over Q, but over Z only if v is even
        for a, b in ((p, u), (p, w * v), (u * v, w), (p.derivative(), u * w), (u * v, u * 2)):
            assert prem(a, b) == _from_sympy(sympy.prem(to_sympy(a), to_sympy(b)))
            q, r = sympy.div(to_sympy(a), to_sympy(b))
            integral = r.is_zero and all(c.is_integer for c in q.all_coeffs())
            assert exact_quotient(a, b) == (_from_sympy(q) if integral else None)
        assert exact_quotient(p * 2, u * 2) == v * w * w
        for a, b in ((p, p.derivative()), (u * w * 3, v * w * 5), (p, v * w * w)):
            got = poly_gcd_q(a, b)
            assert got == _normalized(_from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
            assert got.content() == 1 and got.lead > 0
        sp = to_sympy(p)
        oracle = sympy.exquo(sp, sympy.gcd(sp, sp.diff(X)))
        assert squarefree_part(p) == _normalized(_from_sympy(oracle))
    assert poly_gcd_q(IntPoly.zero(), IntPoly.zero()).is_zero


def test_factor_degrees_mod_vs_sympy():
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        d = rng.randint(1, 10)
        p = IntPoly([rng.randint(-20, 20) for _ in range(d)] + [rng.choice([1, 2, 3, -5])])
        prime = rng.choice([2, 3, 5, 7, 11, 13, 17, 19])
        mod_p = sympy.Poly(list(reversed(p.coeffs)), X, modulus=prime)
        factors = mod_p.factor_list()[1] if mod_p.degree() == d else []
        if mod_p.degree() != d or any(k > 1 for _, k in factors):
            assert factor_degrees_mod(p, prime) is None
        else:
            assert sorted(factor_degrees_mod(p, prime)) == sorted(g.degree() for g, _ in factors)
            checked += 1
    assert checked > 100


def test_factor_degree_sieve():
    assert factor_degree_sieve(IntPoly((-1, -3, 0, 1)), 10) == set()     # x^3 - 3x - 1
    assert factor_degree_sieve(IntPoly((-2, 0, 0, 1)), 10) == set()      # x^3 - 2
    # x^4 + 1 splits into quadratics or linears modulo every prime
    assert factor_degree_sieve(IntPoly((1, 0, 0, 0, 1)), 10) == {2}
    # (x^2 - 2)(x^2 - 3): the true factor degree always survives
    assert 2 in factor_degree_sieve(IntPoly((6, 0, -5, 0, 1)), 10)
