from fractions import Fraction
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapkit import rounding
from gapkit.binforms import BinForm
from gapkit.isolation import _dyadic
from gapkit.rounding import (_MONOMIAL_BITS, RatInterval,
                             certified_floor, compact_str, largest, monomial_up, pow_up,
                             root_down, root_up, simplest_rational_in, tidy_down,
                             tidy_up, exp_interval, exp_up, log_interval)
from gapkit.rounding import _TIDY_DIGITS, _dec_exponent
from gapkit.thue import ThueProblem, census

rationals = st.fractions(min_value=Fraction(1, 10 ** 6),
                         max_value=Fraction(10 ** 6),
                         max_denominator=10 ** 6)
exponents = st.fractions(min_value=Fraction(1, 7), max_value=Fraction(5),
                         max_denominator=12)


@given(rationals, st.integers(min_value=2, max_value=7))
@settings(max_examples=120, deadline=None)
def test_directed_roots_sandwich(x, k):
    lo, hi = root_down(x, k), root_up(x, k)
    assert lo <= hi
    assert lo ** k <= x <= hi ** k


@given(rationals, exponents)
@settings(max_examples=80, deadline=None)
def test_directed_pow_sandwich(b, e):
    # a lower bound is the reciprocal of the upper bound on the reciprocal
    lo, hi = 1 / pow_up(1 / b, e), pow_up(b, e)
    p, q = e.numerator, e.denominator
    assert lo ** q <= b ** p <= hi ** q
    assert pow_up(b, -e) == pow_up(1 / b, e)


def test_big_operand_roots_stay_directed():
    x = Fraction(7 ** 4000, 3 ** 2500)
    lo, hi = root_down(x, 5), root_up(x, 5)
    assert lo ** 5 <= x <= hi ** 5
    assert hi / lo < Fraction(10 ** 30 + 1, 10 ** 30)


# long rationals, large values (more bits than the mantissa) and short
# integers, whose mantissas are exact, so that no rounding hides behind
# another
monomial_bases = st.one_of(
    st.builds(Fraction, st.integers(min_value=1, max_value=2 ** 2000),
              st.integers(min_value=1, max_value=2 ** 2000)),
    st.builds(Fraction, st.integers(min_value=1, max_value=2 ** 2000),
              st.integers(min_value=1, max_value=2 ** 64)),
    st.integers(min_value=1, max_value=2 ** 64).map(Fraction))
monomial_terms = st.lists(
    st.tuples(monomial_bases,
              st.fractions(min_value=0, max_value=1000, max_denominator=12)),
    min_size=1, max_size=4)


def _dyadic_mpf(v: Fraction):
    """v exactly as an mpf, read as mantissa and exponent: v is a dyadic
    whose mantissa has at most one bit more than the monomial width."""
    num, den = v.numerator, v.denominator
    assert den & (den - 1) == 0
    shift = (num & -num).bit_length() - 1
    assert (num >> shift).bit_length() <= _MONOMIAL_BITS + 1
    return mpmath.ldexp(mpmath.mpf(num >> shift), shift - den.bit_length() + 1)


@given(monomial_terms)
# one input for each rounding step: converting a base above and below the
# mantissa width, squaring, multiplying into the power, the root
@example([(Fraction(3 ** 300, 7), Fraction(1))])
@example([(Fraction(1, 3), Fraction(1))])
@example([(Fraction(3), Fraction(128))])
@example([(Fraction(3), Fraction(97))])
@example([(Fraction(2), Fraction(1, 3))])
@settings(max_examples=100, deadline=None)
def test_monomial_up_is_a_tight_upper_bound(terms):
    # mpmath at 4x the mantissa width is within about 2^-(4w - 20) of the
    # exact product, so the 2^-3w allowance below absorbs its own rounding
    # and none of monomial_up's, whose steps are 2^-(w - 1) apart
    w = _MONOMIAL_BITS
    with mpmath.workprec(4 * w):
        exact = mpmath.fprod(mpmath.root((mpmath.mpf(b.numerator) / b.denominator)
                                         ** x.numerator, x.denominator)
                             for b, x in terms)
        got = _dyadic_mpf(monomial_up(terms))
        assert got >= exact * (1 - mpmath.mpf(2) ** (-3 * w))
        assert got <= exact * (1 + mpmath.mpf(2) ** (16 - w))
    # each factor with a small numerator, exactly: v^q >= b^p
    for b, x in terms:
        if x.numerator <= 8:
            assert monomial_up([(b, x)]) ** x.denominator >= b ** x.numerator


def test_monomial_up_exact_cases():
    # integer powers whose product fits the mantissa come out exact
    assert monomial_up([(3, 20), (5, 7), (Fraction(1, 8), 3)]) == Fraction(3 ** 20 * 5 ** 7, 2 ** 9)
    assert monomial_up([(Fraction(9, 4), Fraction(3, 2)), (7, 0)]) == Fraction(27, 8)
    assert monomial_up([(2 ** 400, Fraction(1, 4))]) == 2 ** 100
    assert monomial_up([]) == 1
    top = 2 ** _MONOMIAL_BITS
    assert monomial_up([(top - 1, 1)]) == top - 1
    # one bit too many: the last bit rounds up
    assert monomial_up([(top + 1, 1)]) == top + 2
    with pytest.raises(ValueError):
        monomial_up([(0, 1)])
    with pytest.raises(ValueError):
        monomial_up([(2, -1)])


def test_sqrtval_exactness_and_comparison():
    # c sqrt n values, now bounded by directed monomials
    lo = 8 * root_down(2, 2)                              # 8 sqrt 2
    hi = monomial_up([(8, 1), (2, Fraction(1, 2))])
    assert lo < hi and lo ** 2 <= 128 <= hi ** 2
    assert float(lo) == pytest.approx(11.313708, abs=1e-5)
    assert lo > 11 and hi < 12
    # a perfect square under the root collapses exactly: 3 sqrt 4 = 6
    assert monomial_up([(3, 1), (4, Fraction(1, 2))]) == 6
    assert 3 * root_down(4, 2) == 6
    assert root_up(2, 2) < root_down(3, 2)                # sqrt 2 < sqrt 3
    # the sign stays outside the monomial
    with pytest.raises(ValueError):
        monomial_up([(-1, 1), (2, Fraction(1, 2))])


def test_pow_half_integer():
    # half-integer powers are monomials: exact when the value is rational
    assert monomial_up([(2, Fraction(4, 2))]) == 4
    # 2^(5/2) = 4 sqrt 2, sandwiched by the upper bounds on it and on 2^(-5/2)
    lo, hi = 1 / monomial_up([(Fraction(1, 2), Fraction(5, 2))]), monomial_up([(2, Fraction(5, 2))])
    assert lo < hi and lo ** 2 <= 32 <= hi ** 2
    assert float(lo) == pytest.approx(5.656854, abs=1e-5)
    # a lower bound on 3^(-5/2)
    lo = 1 / monomial_up([(3, Fraction(5, 2))])
    assert lo > 0 and lo ** 2 <= Fraction(1, 3 ** 5)
    assert lo == 1 / pow_up(Fraction(1, 3), Fraction(-5, 2))


def test_simplest_rational():
    assert simplest_rational_in(Fraction(5, 10), Fraction(7, 10)) == Fraction(1, 2)
    assert simplest_rational_in(Fraction(-1, 3), Fraction(1, 5)) == 0
    assert simplest_rational_in(Fraction(31, 10), Fraction(41, 10)) == 4
    # tight interval around 22/7 recovers it
    x = Fraction(22, 7)
    eps = Fraction(1, 1000)
    assert simplest_rational_in(x - eps, x + eps) == x


def test_interval_arithmetic():
    a = RatInterval(1, 2)
    b = RatInterval(Fraction(-1, 2), Fraction(1, 3))
    assert (a + b).lo == Fraction(1, 2)
    assert (a * b).lo == -1
    assert a.abs().lo == 1
    assert (-a).hi == -1
    with pytest.raises(ZeroDivisionError):
        b.inverse()
    assert (a * a * a).hi == 8
    assert a.certainly_gt(RatInterval(Fraction(1, 2)))


def test_certified_floor():
    assert certified_floor(RatInterval(Fraction(29, 10), Fraction(299, 100))) == 2
    with pytest.raises(ValueError):
        certified_floor(RatInterval(Fraction(29, 10), Fraction(31, 10)))


def test_log_exp_enclosures():
    three = log_interval(Fraction(3))
    assert three.lo < three.hi
    assert float(three.lo) == pytest.approx(1.0986, abs=1e-3)
    e2 = exp_interval(Fraction(2))
    assert float(e2.lo) == pytest.approx(7.389, abs=1e-2)
    # round trip stays an enclosure
    back = exp_interval(three)
    assert back.lo <= 3 <= back.hi


def test_tidy_directions():
    x = Fraction(123456789, 987654321)
    assert tidy_down(x) <= x <= tidy_up(x)
    tiny = Fraction(1, 10 ** 60)
    assert 0 < tidy_down(tiny) <= tiny
    huge = Fraction(10 ** 60 + 1, 7)
    assert tidy_up(huge) >= huge


def _tidy_reference(x, rounding):
    """The former tidying formula, as the oracle: a Fraction multiply and a
    ceil or floor."""
    if x == 0:
        return x
    scale = 10 ** max(0, _TIDY_DIGITS - _dec_exponent(x))
    out = Fraction(rounding(x * scale), scale)
    return out if out != 0 else x


_signs = st.sampled_from([1, -1])
_tidy_inputs = st.one_of(
    # integers beyond 10^18, up to 20 kbit
    st.builds(lambda s, n: s * n, _signs,
              st.integers(min_value=10 ** 18 + 1, max_value=2 ** 20000)),
    # 34-kbit denominators, as on C13's closed form
    st.builds(lambda s, n, d: Fraction(s * n, d), _signs,
              st.integers(min_value=1, max_value=2 ** 34200),
              st.integers(min_value=2 ** 34100, max_value=2 ** 34200)),
    # values below 10^-18
    st.builds(lambda s, n, d: Fraction(s * n, d), _signs,
              st.integers(min_value=1, max_value=10 ** 6),
              st.integers(min_value=10 ** 24, max_value=10 ** 60)),
    st.fractions(max_denominator=10 ** 30),
    st.just(Fraction(0)))


@given(_tidy_inputs)
@example(Fraction(0))
@example(Fraction(-1, 10 ** 40))
@example(Fraction(10 ** 60 + 1, 7))
@example(2 ** 20000)
@settings(max_examples=150, deadline=None)
def test_tidy_matches_the_fraction_formula(x):
    x = Fraction(x)
    up, down = tidy_up(x), tidy_down(x)
    assert up == _tidy_reference(x, math.ceil)
    assert down == _tidy_reference(x, math.floor)
    assert down <= x <= up


def test_exp_up_is_the_upper_endpoint():
    for x in (Fraction(-3), Fraction(2), Fraction(6749000)):
        assert exp_up(x) == exp_interval(x).hi
    with mpmath.workdps(200):
        for x in (-3, 2):
            up = exp_up(Fraction(x))
            exact = mpmath.exp(x)
            assert mpmath.mpf(up.numerator) / up.denominator > exact
            assert mpmath.mpf(up.numerator) / up.denominator - exact < exact * mpmath.mpf(2) ** -150


# -- log and exp against mpmath, an independent library ---------------------

ORACLE_BITS = 400     # mpmath's working precision: 2^-400 relative is far below the bounds


def _mpf(q: Fraction):
    """An exact dyadic Fraction as an mpf, exact while its odd part fits."""
    n, d = q.numerator, q.denominator
    assert d & (d - 1) == 0
    z = (n & -n).bit_length() - 1 if n else 0
    return mpmath.mpf((n >> z, z - (d.bit_length() - 1)))


def _mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _assert_encloses(lo: Fraction, hi: Fraction, exact, prec: int):
    # each endpoint on its side, within 2^-150 (2^-(prec - 10)) relative
    lo, hi = _mpf(lo), _mpf(hi)
    assert lo <= exact <= hi
    slack = abs(exact) * mpmath.mpf(2) ** -min(150, prec - 10)
    assert exact - lo <= slack and hi - exact <= slack


_log_args = st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 30), max_value=Fraction(10 ** 30),
                 max_denominator=10 ** 30),
    st.builds(lambda n, d: Fraction(n, d), st.integers(min_value=1, max_value=2 ** 600),
              st.integers(min_value=1, max_value=2 ** 600)),
    # log near 1: relative, not absolute, precision
    st.builds(lambda k, s: 1 + Fraction(s, 2 ** k), st.integers(min_value=1, max_value=400),
              st.sampled_from([1, -1])))


@given(_log_args, st.sampled_from([160, 320, 2560]))
@example(Fraction(2 ** 300 + 1, 2 ** 300), 160)     # log near 1, above
@example(Fraction(2 ** 300 - 1, 2 ** 300), 160)     # log near 1, below
@example(Fraction(2 ** 100), 160)                   # a power of 2: k ln 2, no series
@example(Fraction(1, 2 ** 1000), 320)
@example(Fraction(1), 160)                          # exactly 0
@example(Fraction(10 ** 300, 7), 2560)
@settings(max_examples=150, deadline=None)
def test_log_interval_against_mpmath(x, prec):
    enc = log_interval(x, prec)
    with mpmath.workprec(ORACLE_BITS + prec):
        _assert_encloses(enc.lo, enc.hi, mpmath.log(_mpq(x)), prec)


_exp_args = st.one_of(
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 30),
    st.builds(lambda n, k: Fraction(n, 2 ** k),
              st.integers(min_value=-2 ** 200, max_value=2 ** 200),
              st.integers(min_value=180, max_value=400)))


@given(_exp_args)
@example(Fraction(0))                               # exactly 1
@example(Fraction(-3))
@example(Fraction(1, 10 ** 40))
@example(Fraction(-10 ** 4 + 1, 3))
@settings(max_examples=150, deadline=None)
def test_exp_interval_against_mpmath(x):
    enc = exp_interval(x)
    assert exp_up(x) == enc.hi
    with mpmath.workprec(ORACLE_BITS):
        _assert_encloses(enc.lo, enc.hi, mpmath.exp(_mpq(x)), 160)


@pytest.mark.parametrize("x", [Fraction(5 * 10 ** 6), Fraction(-5 * 10 ** 6),
                               Fraction(6749000 * 2 ** 60 + 1, 2 ** 60)])
def test_exp_interval_of_a_huge_argument_against_mpmath(x):
    # exp(+-5 * 10^6) has about 7.2 million bits, and k ln 2 carries k's 23
    # bits: each endpoint still lies within 2^-150 of the value, relatively
    enc = exp_interval(x)
    with mpmath.workprec(ORACLE_BITS):
        _assert_encloses(enc.lo, enc.hi, mpmath.exp(_mpq(x)), 160)


def test_ln2_lies_below_within_two_units():
    # L <= 2^w ln 2 < L + 2, the rounding of ln 2 that every log and exp
    # endpoint builds on: it lies below, by one unit or more at w = 200
    with mpmath.workprec(12000):
        for w in (1, 64, 200, 217, 600, 1300, 2700, 5500):
            scaled = mpmath.ln2 * mpmath.mpf(2) ** w
            ln2 = rounding._ln2(w)
            assert ln2 <= scaled < ln2 + 2


def _parse_compact(s: str) -> Fraction:
    """The value a scientific ``compact_str`` string names, built exactly."""
    mant, e = s.split("*10^")
    return Fraction(mant) * Fraction(10) ** int(e)


def test_compact_str():
    assert compact_str(Fraction(3, 7), True) == "3/7" == compact_str(Fraction(3, 7), False)
    for up in (True, False):
        s = compact_str(Fraction(2) ** 100000, up)
        assert "*10^" in s and s.endswith("30102")
    # 2^100000 = 9.99002*10^30102 and a bit: the two directions differ by one digit
    assert compact_str(Fraction(2) ** 100000, False) == "9.99002*10^30102"
    assert compact_str(Fraction(2) ** 100000, True) == "9.99003*10^30102"


def test_compact_str_carries_a_mantissa_of_10_into_the_exponent():
    # 10^-10 below 10^50, far more than the estimate's error: up is 10^50
    below = Fraction(10 ** 50 - 10 ** 40)
    assert compact_str(below, True) == "1*10^50"
    assert compact_str(below, False) == "9.99999*10^49"
    assert compact_str(Fraction(10 ** 50 + 10 ** 40), False) == "1*10^50"
    assert compact_str(-below, False) == "-1*10^50"
    # 10^-50 below 10^50, within the estimate's error: the next value out
    assert compact_str(Fraction(10 ** 50 - 1), True) == "1.00001*10^50"


_compact_inputs = st.one_of(
    st.integers(min_value=10 ** 40, max_value=10 ** 400).map(Fraction),
    st.builds(Fraction, st.integers(min_value=1, max_value=10 ** 300),
              st.integers(min_value=10 ** 40, max_value=10 ** 400)),
    st.builds(lambda k, n: Fraction(10 ** k + n), st.integers(min_value=41, max_value=300),
              st.integers(min_value=-10 ** 6, max_value=10 ** 6)))


@given(_compact_inputs, st.booleans())
@example(Fraction(10 ** 45 * 123456), True)      # exactly 6 digits: no estimate decides it
@example(Fraction(10 ** 45 * 123456), False)
@example(Fraction(-(10 ** 60) + 1), True)
@settings(max_examples=200, deadline=None)
def test_compact_str_rounds_in_its_direction(x, up):
    # the printed value lies on its side of x, at most one 6-digit step away
    s = compact_str(x, up)
    if "*10^" not in s:
        assert Fraction(s) == x
        return
    assert s.lstrip("-")[0] in "123456789"
    v = _parse_compact(s)
    assert (v >= x) if up else (v <= x)
    e = int(s.split("*10^")[1])
    assert abs(v - x) <= Fraction(10) ** (e - 5) * 2


def test_compact_str_of_a_census_c5_is_above_it():
    # the C5 of this census printed 4.22695*10^2563408, below the exact value
    res = census(ThueProblem(BinForm((1, -3, -2, -1)), 1, 100), Fraction(11, 4))
    s = res.report()["C5"]["value"]
    assert s == "4.22696*10^2563408"
    assert _parse_compact(s) >= res.c5_value
    assert _parse_compact(compact_str(res.c5_value, False)) <= res.c5_value


# exact dyadic endpoints: man * 2**exp, on the oracle side as an integer
# product or a quotient, never through the conversions under test
def _is_dyadic_value(q: Fraction, man: int, exp: int) -> bool:
    return q == man * (1 << exp) if exp >= 0 else q * (1 << -exp) == man


@given(st.booleans(), st.integers(min_value=1, max_value=2 ** 200),
       st.integers(min_value=-10 ** 7, max_value=10 ** 7),
       st.integers(min_value=1, max_value=220))
@example(False, 3, 0, 1)            # 11b: a tie, rounded to the even 100b
@example(True, 5, -2, 2)            # -101b: a tie, rounded to the even -100b
@example(False, 13, 3, 3)           # 1101b: a tie, rounded down to the even 110b
@example(False, 7, 5, 2)            # 111b rounds up to 1000b
@settings(max_examples=60, deadline=None)
def test_isolation_dyadic_is_exact(negative, man, exp, bits):
    # man * 2**exp rounded to `bits` significant bits: the kept mantissa k,
    # at 2**(exp + drop), is within half its unit of the value, even at a
    # tie, and the value itself when it fits
    m = -man if negative else man
    q = _dyadic(m, -exp, bits)
    drop = max(man.bit_length() - bits, 0)
    k = q * Fraction(2) ** -(exp + drop)
    assert k.denominator == 1 and abs(k.numerator) <= 1 << bits
    err = abs((k.numerator << drop) - m)
    assert 2 * err <= 1 << drop
    if 2 * err == 1 << drop:
        assert k.numerator % 2 == 0
    if drop == 0:
        assert _is_dyadic_value(q, m, exp)


def test_exp_interval_of_a_huge_argument():
    # exp(5 * 10**6) has about 7.2 million bits; its enclosure endpoints are
    # exact dyadics whose log2 agrees with mpmath's at 64 bits
    x = 5 * 10 ** 6
    enc = exp_interval(Fraction(x))
    assert 0 < enc.lo < enc.hi
    for end in (enc.lo, enc.hi):
        den = end.denominator
        assert den & (den - 1) == 0
    with mpmath.workprec(64):
        expected = mpmath.mpf(x) / mpmath.log(2)
        for end in (enc.lo, enc.hi):
            num, den = end.numerator, end.denominator
            shift = num.bit_length() - 64
            log2 = shift - (den.bit_length() - 1) + mpmath.log(num >> shift, 2)
            assert abs(log2 - expected) < mpmath.mpf(2) ** -30


positives = st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 9), max_value=Fraction(10 ** 9),
                 max_denominator=10 ** 9),
    st.integers(min_value=1, max_value=2 ** 80).map(Fraction),
    # nearby values whose parts differ in bit length
    st.tuples(st.integers(min_value=1, max_value=2 ** 12),
              st.integers(min_value=1, max_value=2 ** 12)).map(lambda t: Fraction(*t)))
SEVEN_THIRDS = Fraction(7, 3)


@given(st.lists(positives, min_size=1, max_size=6))
@example([Fraction(17, 9), Fraction(31, 16)])     # sizes 1 and 0, 17/9 the smaller
@example([Fraction(31, 16), Fraction(17, 9)])
@example([Fraction(3), 3])                        # equal, a Fraction and an int
@example([Fraction(3, 2), Fraction(6, 4)])        # equal, two objects
@example([Fraction(5), Fraction(6)])              # integers of one bit length
@example([Fraction(6), Fraction(5)])
@example([SEVEN_THIRDS, SEVEN_THIRDS])            # one object twice
@example([Fraction(2 ** 64 + 1, 2 ** 64), Fraction(2 ** 63 - 1, 2 ** 62)])
@settings(max_examples=300, deadline=None)
def test_largest_is_the_first_maximum_in_fraction_order(values):
    assert largest(values) == values.index(max(values))


def test_largest_never_multiplies_out_sizes_two_bits_apart():
    # 2^40000 / 3 against 5 / 2^40000: bit lengths decide, with no product
    class Parts:
        def __init__(self, n, q):
            self.numerator, self.denominator = n, q

        def __gt__(self, other):
            raise AssertionError("exact comparison of values sizes apart")

    small, big = Parts(5, 2 ** 40000), Parts(2 ** 40000, 3)
    assert largest([small, big]) == 1
    assert largest([big, small, small]) == 0
